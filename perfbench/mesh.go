package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// meshConfig is one dataplane workload: a mesh, a seeded stream of
// channel requests, optional best-effort background, and the
// observability the run attaches.
type meshConfig struct {
	w, h     int
	channels int // channels opened from the seeded request stream
	// draw draws one channel request; requests the controller refuses
	// are skipped until channels are open.
	draw func(rng *rand.Rand, w, h int) chanRequest
	// periodicEvery makes every periodicEvery-th opened channel a
	// periodic source and the rest backlogged; 1 makes all periodic.
	periodicEvery int
	beRate        float64 // best-effort bytes per cycle per node; 0 = none
	explain       bool    // attach the rtsim -explain -metrics stack
	warmup        int64   // cycles run during set-up
	seg           int64   // cycles per timed segment
}

const (
	// coreSegs is the segments every run simulates, however short; the
	// digest covers exactly these.
	coreSegs = 5
	// meshSetups is the set-ups per untraced run; setup_s is their median.
	meshSetups = 3
)

var meshConfigs = map[string]meshConfig{
	"mesh-loaded": {
		w: 16, h: 16, channels: 900, draw: drawChannel, periodicEvery: 8, beRate: 0.2,
		warmup: 6000, seg: 400,
	},
	"mesh-idle": {
		w: 16, h: 16, channels: 8, draw: drawIdleChannel, periodicEvery: 1,
		warmup: 10000, seg: 4000,
	},
	"mesh-explain": {
		w: 8, h: 8, channels: 150, draw: drawShortChannel, periodicEvery: 4, beRate: 0.2, explain: true,
		warmup: 2000, seg: 200,
	},
}

// beSizeLo and beSizeHi bound best-effort payload sizes.
const (
	beSizeLo = 16
	beSizeHi = 256
	// sampleEvery is the registry sampler period on mesh-explain.
	sampleEvery = 1000
	// maxRequests bounds the requests a set-up draws to open its channels.
	maxRequests = 20000
	// beDrainBudget bounds the cycles a run may spend draining
	// best-effort frames after its sources stop.
	beDrainBudget = 20000
)

// chanRequest is one drawn channel request.
type chanRequest struct {
	src, dst mesh.Coord
	spec     rtc.Spec
}

// drawChannel draws a unicast request whose deadline gives every router
// on the dimension-ordered route a delay bound of at least Imin slots.
// Constrained deadlines (per-hop d < Imin) are left out on the dataplane:
// channels admitted with them miss deadlines (a known fault), and the
// benchmark's zero-miss check would then measure that fault instead of
// the dataplane's speed.
func drawChannel(rng *rand.Rand, w, h int) chanRequest {
	src := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
	dst := src
	for dst == src {
		dst = mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
	}
	imin := int64(8 + rng.Intn(33))
	size := traffic.ProbeBytes + rng.Intn(2*packet.TCPayloadBytes-traffic.ProbeBytes+1)
	hops := int64(dist(src, dst) + 1)
	d := imin + int64(rng.Intn(int(imin)+1))
	return chanRequest{src: src, dst: dst, spec: rtc.Spec{Imin: imin, Smax: size, D: hops * d}}
}

// source is a traffic generator the kernel can fast-forward.
type source interface {
	sim.Component
	sim.Skipper
}

// drawShortChannel draws like drawChannel with shorter periods and
// per-hop delays (Imin 8 to 20 slots, d from Imin to 1.25·Imin), so the
// network fills within a short warm-up even where every cycle is
// expensive.
func drawShortChannel(rng *rand.Rand, w, h int) chanRequest {
	src := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
	dst := src
	for dst == src {
		dst = mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
	}
	imin := int64(8 + rng.Intn(13))
	size := traffic.ProbeBytes + rng.Intn(2*packet.TCPayloadBytes-traffic.ProbeBytes+1)
	hops := int64(dist(src, dst) + 1)
	d := imin + int64(rng.Intn(int(imin/4)+1))
	return chanRequest{src: src, dst: dst, spec: rtc.Spec{Imin: imin, Smax: size, D: hops * d}}
}

// idleHops, idleImin and idleSize shape mesh-idle's channels: every
// one crosses the same number of routers with the same contract, so the
// seed moves the channels around the mesh without changing how much of
// it they keep busy.
const (
	idleHops = 10
	idleImin = 32
	idleSize = 30
)

// drawIdleChannel draws a periodic channel between seeded endpoints
// idleHops-1 links apart.
func drawIdleChannel(rng *rand.Rand, w, h int) chanRequest {
	for {
		src := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
		dx := rng.Intn(2*idleHops-1) - (idleHops - 1)
		dy := idleHops - 1 - abs(dx)
		if rng.Intn(2) == 0 {
			dy = -dy
		}
		dst := mesh.Coord{X: src.X + dx, Y: src.Y + dy}
		if dst.X < 0 || dst.X >= w || dst.Y < 0 || dst.Y >= h {
			continue
		}
		return chanRequest{src: src, dst: dst, spec: rtc.Spec{Imin: idleImin, Smax: idleSize, D: idleHops * (idleImin + 8)}}
	}
}

// gated lets a run stop a traffic source, so packets still in the
// network can be drained and counted. While running it is the source.
type gated struct {
	source
	stopped bool
}

func (g *gated) Tick(now sim.Cycle) {
	if !g.stopped {
		g.source.Tick(now)
	}
}

func (g *gated) NextWork(now sim.Cycle) sim.Cycle {
	if g.stopped {
		return sim.Never
	}
	return g.source.NextWork(now)
}

func (g *gated) Skip(now, target sim.Cycle) {
	if !g.stopped {
		g.source.Skip(now, target)
	}
}

// openChannel is an opened channel and what the benchmark's own
// delivery observer has seen of it.
type openChannel struct {
	ch         *core.Channel
	periodic   bool
	boundSlots int64 // admitted bound plus the source window
	ppm        int64 // packets per message
	delivered  int64 // packets delivered
	probed     int64 // probe-timed deliveries checked against the bound
}

// meshSystem is a built dataplane workload.
type meshSystem struct {
	cfg   meshConfig
	sys   *core.System
	chans []*openChannel
	bes   []*traffic.BEApp
	gates []*gated // every traffic source, TC and BE
	reg   *metrics.Registry
	col   *obs.Sharded
	slo   *obs.SLO
	fns   *obs.Forensics
	rec   *obs.Recorder

	late      int64 // probe-timed deliveries past their guarantee
	worstLate int64 // largest overrun seen, cycles
	worstSeen int64 // largest latency minus allowance, cycles (≤ 0 when all on time)
	foreign   int64 // deliveries on connection ids no channel owns
	beSeen    int64 // best-effort frames delivered
}

// buildMesh builds the workload's system from the seed: the mesh, every
// channel the controller admits out of the drawn requests with its
// traffic source, best-effort sources on every node, and the warm-up.
// detached builds the same workload without the -explain stack.
func buildMesh(cfg meshConfig, seed int64, tr *tracer, detached bool) (*meshSystem, error) {
	ms := &meshSystem{cfg: cfg, slo: obs.NewSLO(), worstSeen: math.MinInt64}
	opts := core.Options{Workers: 1, ChannelSLO: ms.slo}
	if cfg.explain && !detached {
		ms.reg = metrics.NewRegistry()
		ms.col = obs.NewSharded(obs.DefaultShardCap)
		ms.fns = obs.NewForensics()
		ms.fns.UseSLO(ms.slo)
		ms.rec = obs.NewRecorder(0, 0)
		opts.Metrics, opts.MetricsSampleEvery = ms.reg, sampleEvery
		opts.Collector, opts.Forensics, opts.Recorder = ms.col, ms.fns, ms.rec
	}
	if detached {
		ms.slo = nil
		opts.ChannelSLO = nil
	}
	id := tr.begin("core.NewMesh")
	sys, err := core.NewMesh(cfg.w, cfg.h, opts)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("build %dx%d mesh: %w", cfg.w, cfg.h, err)
	}
	ms.sys = sys
	window := sys.Adm.ConfigView().SourceWindow

	// byConn maps a delivery (node, connection id) to its channel.
	byConn := make([][]*openChannel, cfg.w*cfg.h)
	for i := range byConn {
		byConn[i] = make([]*openChannel, 256)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; len(ms.chans) < cfg.channels; i++ {
		if i == maxRequests {
			return nil, fmt.Errorf("controller admitted %d of %d channel requests, want %d", len(ms.chans), i, cfg.channels)
		}
		req := cfg.draw(rng, cfg.w, cfg.h)
		id := tr.begin("core.OpenChannel")
		ch, err := sys.OpenChannel(req.src, []mesh.Coord{req.dst}, req.spec)
		tr.end(id)
		if err != nil {
			continue // refusals are the controller's to make
		}
		oc := &openChannel{
			ch:         ch,
			periodic:   len(ms.chans)%cfg.periodicEvery == 0,
			boundSlots: ch.Admitted().Bound() + window,
			ppm:        int64(req.spec.PacketsPerMessage()),
		}
		pattern := traffic.Backlogged
		if oc.periodic {
			pattern = traffic.Periodic
		}
		app, err := traffic.NewTCApp(fmt.Sprintf("tc%d", len(ms.chans)), ch.Paced(), req.spec, pattern, req.spec.Smax)
		if err != nil {
			return nil, fmt.Errorf("traffic source for %s->%s: %w", req.src, req.dst, err)
		}
		ms.register(req.src, app)
		adm := ch.Admitted()
		byConn[sys.Net.Shard(adm.Dsts[0])][adm.DstConn[0]] = oc
		ms.chans = append(ms.chans, oc)
	}
	id = tr.begin("admission.Seal")
	sys.SealCapacity()
	tr.end(id)

	if cfg.beRate > 0 {
		for i, c := range sys.Net.Coords() {
			app, err := traffic.NewBEApp(fmt.Sprintf("be%s", c), sys.Net, c,
				traffic.UniformDst(sys.Net, c), traffic.UniformSize(beSizeLo, beSizeHi), cfg.beRate, seed*1000+int64(i))
			if err != nil {
				return nil, fmt.Errorf("best-effort source at %s: %w", c, err)
			}
			ms.register(c, app)
			ms.bes = append(ms.bes, app)
		}
	}
	for _, c := range sys.Net.Coords() {
		conns := byConn[sys.Net.Shard(c)]
		snk := sys.Sink(c)
		snk.OnTC = func(d router.DeliveredTC) {
			oc := conns[d.Conn]
			if oc == nil {
				ms.foreign++
				return
			}
			oc.delivered++
			if !oc.periodic {
				return
			}
			if inj, _ := traffic.DecodeProbe(d.Payload[:]); inj > 0 && inj <= d.Cycle {
				oc.probed++
				late := lateCycles(inj, d.Cycle, oc.boundSlots)
				if late > ms.worstSeen {
					ms.worstSeen = late
				}
				if late > 0 {
					ms.late++
					if late > ms.worstLate {
						ms.worstLate = late
					}
				}
			}
		}
		snk.OnBE = func(router.DeliveredBE) { ms.beSeen++ }
	}
	id = tr.begin("core.Run")
	sys.Run(cfg.warmup)
	tr.end(id)
	return ms, nil
}

// register adds a traffic source at node c behind a gate.
func (ms *meshSystem) register(c mesh.Coord, src source) {
	g := &gated{source: src}
	ms.sys.RegisterNode(c, g)
	ms.gates = append(ms.gates, g)
}

// meshCounters is the dataplane's deterministic work, summed over the
// routers.
type meshCounters struct {
	selects, tcHops, beFlits, busGrants int64
	occupancy                           int
}

func (ms *meshSystem) counters() meshCounters {
	var c meshCounters
	for _, co := range ms.sys.Net.Coords() {
		r := ms.sys.Router(co)
		st := &r.Stats
		for p := 0; p < router.NumPorts; p++ {
			c.tcHops += st.TCTransmitted[p]
			c.beFlits += st.BEBytes[p]
		}
		c.busGrants += st.BusGrants
		if t, ok := r.Scheduler().(*sched.EDFTree); ok {
			c.selects += t.Selects
		}
		if occ := r.Scheduler().Occupancy(); occ > c.occupancy {
			c.occupancy = occ
		}
	}
	return c
}

// runMeshPass builds the workload (setups times, keeping the last),
// runs the timed phase for at least seconds, then checks the outputs.
func runMeshPass(name string, cfg meshConfig, seed int64, seconds float64, setups int, traced bool, outDir string) (*outcome, error) {
	tr := newTracer(traced)
	o := newOutcome()
	var ms *meshSystem
	for i := 0; i < setups; i++ {
		if ms != nil {
			ms.sys.Close()
			ms = nil
		}
		runtime.GC()
		c0 := cpuSeconds()
		var err error
		ms, err = buildMesh(cfg, seed, tr, false)
		if err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, cpuSeconds()-c0)
	}
	defer ms.sys.Close()
	o.heapMB = liveHeapMB()

	var prof *cpuProfile
	var start meshCounters
	var runAllocs uint64
	if traced {
		start = ms.counters()
		var err error
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
	}
	delivered0 := ms.deliveries()
	cycle0 := ms.sys.Now()
	var rates []float64
	var summary core.Summary
	occPeak := 0
	began := time.Now()
	for seg := 0; seg < coreSegs || time.Since(began).Seconds() < seconds; seg++ {
		id := tr.begin("core.Run")
		a0 := allocs(traced)
		c0 := cpuSeconds()
		ms.sys.Run(cfg.seg)
		rates = append(rates, float64(cfg.seg)/(cpuSeconds()-c0))
		runAllocs += allocs(traced) - a0
		tr.end(id)
		if traced {
			if c := ms.counters(); c.occupancy > occPeak {
				occPeak = c.occupancy
			}
		}
		if seg == coreSegs-1 {
			o.digest = ms.digest()
			summary = ms.sys.Summarize()
		}
	}
	o.opsPerS = sustained(rates)
	cycles := ms.sys.Now() - cycle0
	o.attempted = ms.deliveries() - delivered0
	if traced {
		byFn, err := prof.stop(outDir + "/" + name + ".pprof")
		if err != nil {
			return nil, err
		}
		end := ms.counters()
		cyc := float64(cycles)
		L := o.layer
		profileLayers(L, byFn, cyc)
		L["sched.select_ns_per_cycle"] = float64(matchSelf(byFn, "sched", "(*EDFTree).Select")) / cyc
		L["router.bind_ns_per_cycle"] = float64(matchSelf(byFn, "router", "(*beOutput).bind")) / cyc
		L["router.blame_ns_per_cycle"] = float64(matchSelf(byFn, "router", "(*Router).blameScan", "(*Router).blameIdle")) / cyc
		L["sched.selects_per_kcycle"] = float64(end.selects-start.selects) * 1000 / cyc
		L["sched.occupancy_peak"] = float64(occPeak)
		L["router.tc_hops_per_kcycle"] = float64(end.tcHops-start.tcHops) * 1000 / cyc
		L["router.be_flits_per_kcycle"] = float64(end.beFlits-start.beFlits) * 1000 / cyc
		L["router.bus_grants_per_kcycle"] = float64(end.busGrants-start.busGrants) * 1000 / cyc
		L["sim.allocs_per_kcycle"] = float64(runAllocs) * 1000 / cyc
		if opens := tr.durations("core.OpenChannel"); len(opens) > 0 {
			L["core.open_channel_us"] = float64(tr.total("core.OpenChannel")) / float64(len(opens)) / 1e3
		}
		L["core.channels_opened"] = float64(len(ms.chans))
		if ms.col != nil {
			L["obs.events_recorded"] = float64(ms.col.Total())
		}
	}
	o.summary = []string{
		fmt.Sprintf("%s seed %d: %d channels on %dx%d, %d cycles timed, %d deliveries",
			name, seed, len(ms.chans), cfg.w, cfg.h, cycles, o.attempted),
		fmt.Sprintf("  worst periodic delivery %d cycles inside its guarantee", -ms.worstSeen),
	}
	err := ms.check(tr)
	if err == nil && cfg.explain {
		if err = ms.postRun(tr, o); err == nil {
			err = ms.checkDetached(seed, summary)
		}
	}
	o.fail(err)
	if traced {
		o.layer["admission.verify_ledger_ms"] = median(durationsMS(tr.durations("admission.VerifyLedger")))
		o.layer["admission.seal_ms"] = median(durationsMS(tr.durations("admission.Seal")))
	}
	sum := ms.sys.Summarize()
	o.failed = sum.TCMisses + sum.TCDrops + ms.late
	if traced {
		if err := tr.write(outDir + "/" + name + ".spans.jsonl"); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// deliveries counts TC packets and BE frames delivered so far.
func (ms *meshSystem) deliveries() int64 {
	var n int64
	for _, oc := range ms.chans {
		n += oc.delivered
	}
	return n + ms.beSeen
}

// digest hashes the simulated results: every router's counters, every
// sink's delivery counts, each channel's deliveries and the admitted
// set with its sealed ledger.
func (ms *meshSystem) digest() string {
	d := newDigest()
	for _, c := range ms.sys.Net.Coords() {
		d.add("router %s %+v\n", c, ms.sys.Router(c).Stats)
		snk := ms.sys.Sink(c)
		d.add("sink %s %d %d\n", c, snk.TCCount, snk.BECount)
	}
	for _, oc := range ms.chans {
		a := oc.ch.Admitted()
		d.add("chan %d %s %v %s d=%d %v delivered=%d\n", a.ID, a.Src, a.Dsts, a.Route(), a.LocalD, a.DSplit, oc.delivered)
	}
	d.addJSON(ms.sys.Adm.Seal())
	return d.sum()
}

// check judges the run: every backlogged channel at or above its
// throughput floor when the sources stop, every link schedulable by
// recomputation, the ledger conserved, every best-effort frame
// delivered once the network drains, and through the drain no TC drops
// or misses on the routers and every periodic delivery within its
// admitted guarantee.
func (ms *meshSystem) check(tr *tracer) error {
	now := ms.sys.Now()
	probed := int64(0)
	for _, oc := range ms.chans {
		if oc.periodic {
			probed += oc.probed
			continue
		}
		floor := backlogFloor(oc.ch.Spec().Imin, oc.ppm, oc.boundSlots, 0, now)
		if oc.delivered < floor {
			a := oc.ch.Admitted()
			return fmt.Errorf("backlogged channel %d (%s->%v, Imin %d) delivered %d packets in %d cycles, floor %d",
				a.ID, a.Src, a.Dsts, a.Spec.Imin, oc.delivered, now, floor)
		}
	}
	if probed == 0 {
		return fmt.Errorf("no periodic delivery was probe-timed")
	}
	rs := make([]reservation, len(ms.chans))
	for i, oc := range ms.chans {
		rs[i] = reservationOf(oc.ch.Admitted())
	}
	if err := checkUtilization(rs); err != nil {
		return err
	}
	id := tr.begin("admission.Seal")
	snap := ms.sys.Adm.Seal()
	tr.end(id)
	if err := checkLedger(snap, rs); err != nil {
		return err
	}
	id = tr.begin("admission.VerifyLedger")
	err := ms.sys.Adm.VerifyLedger()
	tr.end(id)
	if err != nil {
		return fmt.Errorf("VerifyLedger: %w", err)
	}
	if err := ms.drainBE(); err != nil {
		return err
	}
	sum := ms.sys.Summarize()
	if sum.TCMisses != 0 || sum.TCDrops != 0 {
		return fmt.Errorf("routers report %d deadline misses and %d drops on admitted traffic", sum.TCMisses, sum.TCDrops)
	}
	if ms.late != 0 {
		return fmt.Errorf("%d periodic deliveries overran their admitted bound (worst by %d cycles)", ms.late, ms.worstLate)
	}
	if ms.foreign != 0 {
		return fmt.Errorf("%d deliveries on connection ids no channel owns", ms.foreign)
	}
	if ms.fns != nil {
		ms.fns.Flush()
		if st := ms.fns.Stats(); st.Unattributed != 0 {
			return fmt.Errorf("forensics left %d stalled cycles unattributed", st.Unattributed)
		}
		var hopMisses, routerMisses int64
		for _, cs := range ms.slo.Channels() {
			hopMisses += cs.HopMisses()
		}
		for _, c := range ms.sys.Net.Coords() {
			routerMisses += ms.sys.Router(c).Stats.TCDeadlineMisses
		}
		if hopMisses != routerMisses {
			return fmt.Errorf("SLO counts %d hop misses, routers count %d", hopMisses, routerMisses)
		}
	}
	return nil
}

// drainBE stops every traffic source and runs until every injected
// best-effort frame is delivered. Backlogged channels can hold a link
// at full reservation, which leaves best-effort frames on it waiting
// for as long as the channels run, so the time-constrained sources stop
// too.
func (ms *meshSystem) drainBE() error {
	if len(ms.bes) == 0 {
		return nil
	}
	for _, g := range ms.gates {
		g.stopped = true
	}
	injected := func() int64 {
		var n int64
		for _, g := range ms.bes {
			n += g.Injected
		}
		return n
	}
	want := injected()
	if !ms.sys.RunUntil(func() bool { return ms.beSeen >= want }, beDrainBudget) {
		return fmt.Errorf("best-effort: %d frames injected, %d delivered after a %d-cycle drain",
			want, ms.beSeen, beDrainBudget)
	}
	if ms.beSeen != want {
		return fmt.Errorf("best-effort: %d frames injected, %d delivered", want, ms.beSeen)
	}
	return nil
}

// postRun makes the rtsim -explain -metrics report and export calls and
// checks that their outputs parse.
func (ms *meshSystem) postRun(tr *tracer, o *outcome) error {
	t0 := time.Now()
	id := tr.begin("obs.Forensics.Report")
	events := ms.col.Merged()
	ms.fns.Report(io.Discard, events)
	ms.rec.Summary(io.Discard)
	ms.slo.Report(io.Discard)
	tr.end(id)
	reportMS := float64(time.Since(t0).Microseconds()) / 1e3
	if len(events) == 0 {
		return fmt.Errorf("collector merged no events")
	}
	ms.reg.Cycles.Store(ms.sys.Now())
	t0 = time.Now()
	var js, prom bytes.Buffer
	id = tr.begin("metrics.Registry.WriteJSON")
	err := ms.reg.WriteJSON(&js)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("WriteJSON: %w", err)
	}
	id = tr.begin("metrics.Registry.WritePrometheus")
	err = ms.reg.WritePrometheus(&prom)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("WritePrometheus: %w", err)
	}
	exportMS := float64(time.Since(t0).Microseconds()) / 1e3
	if !json.Valid(js.Bytes()) || !bytes.Contains(prom.Bytes(), []byte("rt_cycles ")) {
		return fmt.Errorf("telemetry exports are malformed")
	}
	if tr.on {
		o.layer["obs.report_ms"] = reportMS
		o.layer["metrics.export_ms"] = exportMS
	}
	return nil
}

// checkDetached runs the same workload with observability detached for
// the digest's cycles and requires the identical simulated summary:
// observing the dataplane must not change it.
func (ms *meshSystem) checkDetached(seed int64, want core.Summary) error {
	plain, err := buildMesh(ms.cfg, seed, newTracer(false), true)
	if err != nil {
		return err
	}
	defer plain.sys.Close()
	plain.sys.Run(ms.cfg.seg * int64(coreSegs))
	got := plain.sys.Summarize()
	if a, b := summaryText(got), summaryText(want); a != b {
		return fmt.Errorf("observability changed the simulation:\n detached %s\n observed %s", a, b)
	}
	return nil
}

func summaryText(s core.Summary) string {
	return fmt.Sprintf("tc=%d miss=%d drop=%d be=%d peak=%d cut=%d bus=%.9f tclat=%v/%v belat=%v/%v",
		s.TCDelivered, s.TCMisses, s.TCDrops, s.BEDelivered, s.SchedulerPeak, s.CutThroughs, s.BusUtilization,
		s.TCLatency.N(), s.TCLatency.Mean(), s.BELatency.N(), s.BELatency.Mean())
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// allocs returns the heap objects the process has allocated so far when
// traced, counted around each core.Run segment so the digest and the
// profile writer stay out of the count; untraced runs skip the read.
func allocs(traced bool) uint64 {
	if !traced {
		return 0
	}
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}
