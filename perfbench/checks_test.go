package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/mesh"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
)

func TestParseRoute(t *testing.T) {
	links, err := parseRoute("(0,0)[+x] (1,0)[+y -y] (1,1)[local]")
	if err != nil {
		t.Fatal(err)
	}
	want := []link{{0, 0, "+x"}, {1, 0, "+y"}, {1, 0, "-y"}, {1, 1, "local"}}
	if len(links) != len(want) {
		t.Fatalf("got %v, want %v", links, want)
	}
	for i := range want {
		if links[i] != want[i] {
			t.Fatalf("link %d: got %v, want %v", i, links[i], want[i])
		}
	}
	for _, bad := range []string{"", "(0,0)", "(0,0)[]", "0,0[+x]", "(a,0)[+x]"} {
		if _, err := parseRoute(bad); err == nil {
			t.Errorf("parseRoute(%q) accepted a malformed route", bad)
		}
	}
}

// An over-utilized link list: three channels of C/Imin = 1/2 share the
// link (0,0)→+x.
func TestUtilizationRejectsOverloadedLink(t *testing.T) {
	src := mesh.Coord{X: 0, Y: 0}
	ok := []reservation{
		{Src: src, Route: "(0,0)[+x] (1,0)[local]", C: 1, Imin: 2},
		{Src: mesh.Coord{X: 0, Y: 1}, Route: "(0,1)[-y] (0,0)[+x] (1,0)[local]", C: 1, Imin: 2},
	}
	if err := checkUtilization(ok); err != nil {
		t.Fatalf("a link at exactly Σ C/Imin = 1 was rejected: %v", err)
	}
	over := append(ok, reservation{Src: mesh.Coord{X: 0, Y: 2}, Route: "(0,2)[-y] (0,1)[-y] (0,0)[+x] (1,0)[local]", C: 1, Imin: 2})
	err := checkUtilization(over)
	if err == nil || !strings.Contains(err.Error(), "(0,0)→+x") {
		t.Fatalf("over-utilized link not rejected by name: %v", err)
	}
}

// A late delivery record: a probe-timed delivery one cycle past the
// bound plus the grace slot.
func TestLateDeliveryRejected(t *testing.T) {
	const bound = 40
	inj := int64(1000)
	onTime := inj + (bound+deliveryGraceSlots)*packet.TCBytes
	if late := lateCycles(inj, onTime, bound); late > 0 {
		t.Fatalf("delivery at the bound judged %d cycles late", late)
	}
	if late := lateCycles(inj, onTime+1, bound); late != 1 {
		t.Fatalf("delivery one cycle past the bound judged %d cycles late, want 1", late)
	}
}

func TestBacklogFloor(t *testing.T) {
	// 1000 slots, bound 40 and the grace slot leave 959 slots: 47
	// releases of Imin 20, one fewer for the release phase, 2 packets each.
	if got := backlogFloor(20, 2, 40, 0, 1000*packet.TCBytes); got != 2*46 {
		t.Fatalf("floor %d, want %d", got, 2*46)
	}
	if got := backlogFloor(20, 2, 40, 0, 10*packet.TCBytes); got != 0 {
		t.Fatalf("floor %d for a run shorter than the bound, want 0", got)
	}
}

// admitted builds a small controller with a few channels.
func admitted(t *testing.T) (*admission.Controller, []reservation) {
	t.Helper()
	net, err := mesh.New(4, 4, router.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := admission.New(net, admission.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rs []reservation
	for _, p := range [][2]mesh.Coord{
		{{X: 0, Y: 0}, {X: 3, Y: 2}},
		{{X: 1, Y: 0}, {X: 3, Y: 2}},
		{{X: 3, Y: 3}, {X: 0, Y: 1}},
	} {
		ch, err := ctl.Admit(p[0], []mesh.Coord{p[1]}, rtc.Spec{Imin: 16, Smax: 30, D: 6 * 20})
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, reservationOf(ch))
	}
	return ctl, rs
}

// A tampered ledger: the sealed snapshot disagrees with the routes on
// one link's channel count, on its utilization, or loses the link.
func TestLedgerRejectsTampering(t *testing.T) {
	ctl, rs := admitted(t)
	if err := checkLedger(ctl.Seal(), rs); err != nil {
		t.Fatalf("untampered ledger rejected: %v", err)
	}
	snap := ctl.Seal()
	tamper := map[string]func(){
		"channels":      func() { snap.Links[1].Channels++ },
		"utilization":   func() { snap.Links[2].Utilization += 0.01 },
		"lost link":     func() { snap.Links = snap.Links[1:] },
		"extra channel": func() { snap.Channels++ },
	}
	for name, f := range tamper {
		snap = ctl.Seal()
		f()
		if err := checkLedger(snap, rs); err == nil {
			t.Errorf("ledger with a tampered %s accepted", name)
		}
	}
}

// A non-minimal route: a detour through (1,1) on the way from (0,0) to
// (2,0).
func TestPlanRejectsNonMinimalRoute(t *testing.T) {
	spec := rtc.Spec{Imin: 16, Smax: 18, D: 60}
	good := admission.PlanSpec{
		Src: mesh.Coord{X: 0, Y: 0}, Dst: mesh.Coord{X: 2, Y: 0}, Spec: spec,
		Route:  []int{router.PortXPlus, router.PortXPlus, router.PortLocal},
		DSplit: []int64{20, 20, 20},
	}
	if err := checkPlan(good); err != nil {
		t.Fatalf("minimal plan rejected: %v", err)
	}
	detour := good
	detour.Route = []int{router.PortYPlus, router.PortXPlus, router.PortXPlus, router.PortYMinus, router.PortLocal}
	detour.DSplit = []int64{10, 10, 10, 10, 10}
	if err := checkPlan(detour); err == nil {
		t.Error("detour route accepted")
	}
	wrongWay := good
	wrongWay.Route = []int{router.PortXPlus, router.PortXMinus, router.PortLocal}
	if err := checkPlan(wrongWay); err == nil {
		t.Error("route that turns back accepted")
	}
	overBudget := good
	overBudget.DSplit = []int64{20, 20, 21}
	if err := checkPlan(overBudget); err == nil {
		t.Error("split summing past D accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	for _, c := range []struct{ got, want float64 }{{q1, 2.75}, {med, 5.5}, {q3, 8.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
		}
	}
}

var sink uint64

func TestProfileAttribution(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := 0; i < 1e5; i++ {
			sink = sink*6364136223846793005 + uint64(i)
		}
	}
	byFn, err := p.stop(t.TempDir() + "/p.pprof")
	if err != nil {
		t.Fatal(err)
	}
	layers := layerSelf(byFn)
	if layers["main"] == 0 {
		t.Fatalf("no self time charged to the test's own loop: %v", layers)
	}
	for _, c := range []struct{ fn, layer string }{
		{"repro/internal/sched.(*EDFTree).Select", "sched"},
		{"repro/internal/router.(*beOutput).bind", "router"},
		{"runtime.mallocgc", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime"},
		{"sort.Slice", "other"},
	} {
		if got := layerOf(c.fn); got != c.layer {
			t.Errorf("layerOf(%q) = %q, want %q", c.fn, got, c.layer)
		}
	}
}
