package main

import (
	"fmt"
	"math"
	"math/big"
	"sort"
	"strconv"
	"strings"

	"repro/internal/admission"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/router"
)

// The checkers below judge the program's outputs by properties and by
// computations made apart from the program's own counters, so a change
// that corrects the admission analysis still passes them as long as
// what it admits is schedulable and what the dataplane delivers is on
// time.

// link names one directed link a channel reserves: an output port of a
// router ("+x", "-y", "local", ...) or the source's injection link
// ("inject").
type link struct {
	X, Y int
	Port string
}

func (l link) String() string { return fmt.Sprintf("(%d,%d)→%s", l.X, l.Y, l.Port) }

// reservation is what the checkers know about one admitted channel:
// its source, its rendered route and its contract's C and Imin.
type reservation struct {
	Src   mesh.Coord
	Route string // admission.Channel.Route()
	C     int64  // message slots
	Imin  int64
}

func reservationOf(ch *admission.Channel) reservation {
	return reservation{Src: ch.Src, Route: ch.Route(), C: ch.Spec.MessageSlots(), Imin: ch.Spec.Imin}
}

// parseRoute reads a route rendered as "(0,0)[+x] (1,0)[+x local]" into
// the directed links it crosses.
func parseRoute(route string) ([]link, error) {
	var out []link
	s := route
	for len(s) > 0 {
		s = strings.TrimLeft(s, " ")
		if s == "" {
			break
		}
		if s[0] != '(' {
			return nil, fmt.Errorf("route %q: want '(' at %q", route, s)
		}
		close := strings.IndexByte(s, ')')
		open := strings.IndexByte(s, '[')
		end := strings.IndexByte(s, ']')
		if close < 0 || open != close+1 || end < open {
			return nil, fmt.Errorf("route %q: malformed hop at %q", route, s)
		}
		xy := strings.Split(s[1:close], ",")
		if len(xy) != 2 {
			return nil, fmt.Errorf("route %q: bad coordinate %q", route, s[:close+1])
		}
		x, errX := strconv.Atoi(xy[0])
		y, errY := strconv.Atoi(xy[1])
		if errX != nil || errY != nil {
			return nil, fmt.Errorf("route %q: bad coordinate %q", route, s[:close+1])
		}
		ports := strings.Fields(s[open+1 : end])
		if len(ports) == 0 {
			return nil, fmt.Errorf("route %q: hop without ports", route)
		}
		for _, p := range ports {
			out = append(out, link{X: x, Y: y, Port: p})
		}
		s = s[end+1:]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("route %q: empty", route)
	}
	return out, nil
}

// linkUse is the recomputed reservation of one directed link.
type linkUse struct {
	Channels int
	SumC     int64
	Util     *big.Rat // exact Σ C/Imin
}

// recomputeLinks sums C/Imin per directed link from the channels'
// routes and contracts, including each source's injection link, exactly
// as the paper's per-link utilization test defines the load.
func recomputeLinks(rs []reservation) (map[link]*linkUse, error) {
	use := make(map[link]*linkUse)
	add := func(l link, r reservation) {
		u := use[l]
		if u == nil {
			u = &linkUse{Util: new(big.Rat)}
			use[l] = u
		}
		u.Channels++
		u.SumC += r.C
		u.Util.Add(u.Util, big.NewRat(r.C, r.Imin))
	}
	for _, r := range rs {
		if r.Imin < 1 || r.C < 1 {
			return nil, fmt.Errorf("channel %s: contract C=%d Imin=%d", r.Route, r.C, r.Imin)
		}
		links, err := parseRoute(r.Route)
		if err != nil {
			return nil, err
		}
		add(link{X: r.Src.X, Y: r.Src.Y, Port: "inject"}, r)
		for _, l := range links {
			add(l, r)
		}
	}
	return use, nil
}

// checkUtilization rejects any directed link whose recomputed Σ C/Imin
// exceeds 1: no schedule can serve such a link.
func checkUtilization(rs []reservation) error {
	use, err := recomputeLinks(rs)
	if err != nil {
		return err
	}
	one := big.NewRat(1, 1)
	for _, l := range sortedLinks(use) {
		if use[l].Util.Cmp(one) > 0 {
			f, _ := use[l].Util.Float64()
			return fmt.Errorf("link %s over-utilized: Σ C/Imin = %.4f over %d channels", l, f, use[l].Channels)
		}
	}
	return nil
}

// checkLedger compares a sealed capacity snapshot with the reservation
// recomputed from the channels: the same links, and on each the same
// channel count, reserved slots and utilization.
func checkLedger(snap *metrics.CapacitySnapshot, rs []reservation) error {
	if snap == nil {
		return fmt.Errorf("ledger: no sealed snapshot")
	}
	if snap.Channels != len(rs) {
		return fmt.Errorf("ledger: %d channels sealed, %d admitted", snap.Channels, len(rs))
	}
	use, err := recomputeLinks(rs)
	if err != nil {
		return err
	}
	seen := make(map[link]bool, len(snap.Links))
	for _, lc := range snap.Links {
		l := link{X: lc.NodeX, Y: lc.NodeY, Port: lc.Port}
		seen[l] = true
		u := use[l]
		if u == nil {
			return fmt.Errorf("ledger: link %s reserved with no channel routed over it", l)
		}
		want, _ := u.Util.Float64()
		if lc.Channels != u.Channels || lc.ReservedSlots != u.SumC || math.Abs(lc.Utilization-want) > 1e-9 {
			return fmt.Errorf("ledger: link %s holds %d channels, %d slots, util %.6f; routes give %d, %d, %.6f",
				l, lc.Channels, lc.ReservedSlots, lc.Utilization, u.Channels, u.SumC, want)
		}
	}
	for _, l := range sortedLinks(use) {
		if !seen[l] {
			return fmt.Errorf("ledger: link %s carries %d channels but is missing from the ledger", l, use[l].Channels)
		}
	}
	return nil
}

func sortedLinks(use map[link]*linkUse) []link {
	ls := make([]link, 0, len(use))
	for l := range use {
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Y != ls[j].Y {
			return ls[i].Y < ls[j].Y
		}
		if ls[i].X != ls[j].X {
			return ls[i].X < ls[j].X
		}
		return ls[i].Port < ls[j].Port
	})
	return ls
}

// deliveryGraceSlots covers the processor interfaces at both ends: a
// source submission becomes visible to the router one cycle later, and
// the sink drains a delivery after the router's tick.
const deliveryGraceSlots = 1

// lateCycles returns by how many cycles a probe-timed delivery overran
// its channel's guarantee of boundSlots — the admitted bound plus the
// source window the regulator may hold a message for. A value ≤ 0 means
// the delivery was on time.
func lateCycles(injCycle, deliverCycle, boundSlots int64) int64 {
	return deliverCycle - injCycle - (boundSlots+deliveryGraceSlots)*packet.TCBytes
}

// backlogFloor is the fewest packets a continually backlogged channel
// must deliver by cycle end when its first message was submitted at
// cycle start: its regulator releases one message every Imin slots, and
// each must arrive within boundSlots of its release. One message of
// slack covers the release phase within the first slot.
func backlogFloor(imin, packetsPerMessage, boundSlots, start, end int64) int64 {
	slots := (end-start)/packet.TCBytes - boundSlots - deliveryGraceSlots
	if slots <= 0 {
		return 0
	}
	msgs := slots/imin - 1
	if msgs < 0 {
		return 0
	}
	return msgs * packetsPerMessage
}

// checkPlan checks a synthesized layout by its definition: a
// Manhattan-minimal simple path from Src that ends in the local port
// at Dst, with one positive per-hop delay per router summing to at most
// the contract's D.
func checkPlan(ps admission.PlanSpec) error {
	dx, dy := ps.Dst.X-ps.Src.X, ps.Dst.Y-ps.Src.Y
	want := abs(dx) + abs(dy) + 1
	if len(ps.Route) != want {
		return fmt.Errorf("plan %s->%s: route has %d hops, Manhattan-minimal is %d", ps.Src, ps.Dst, len(ps.Route), want)
	}
	if len(ps.DSplit) != len(ps.Route) {
		return fmt.Errorf("plan %s->%s: %d delays for %d hops", ps.Src, ps.Dst, len(ps.DSplit), len(ps.Route))
	}
	at := ps.Src
	for i, p := range ps.Route {
		last := i == len(ps.Route)-1
		if last {
			if p != router.PortLocal || at != ps.Dst {
				return fmt.Errorf("plan %s->%s: route ends at %s on port %s", ps.Src, ps.Dst, at, router.PortName(p))
			}
			break
		}
		next := at.Add(p)
		if p == router.PortLocal || dist(next, ps.Dst) != dist(at, ps.Dst)-1 {
			return fmt.Errorf("plan %s->%s: hop %d (%s at %s) does not approach the destination",
				ps.Src, ps.Dst, i, router.PortName(p), at)
		}
		at = next
	}
	var sum int64
	for j, d := range ps.DSplit {
		if d < 1 {
			return fmt.Errorf("plan %s->%s: d_%d = %d", ps.Src, ps.Dst, j, d)
		}
		sum += d
	}
	if sum > ps.Spec.D {
		return fmt.Errorf("plan %s->%s: Σ d_j = %d exceeds D = %d", ps.Src, ps.Dst, sum, ps.Spec.D)
	}
	return nil
}

func dist(a, b mesh.Coord) int { return abs(a.X-b.X) + abs(a.Y-b.Y) }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
