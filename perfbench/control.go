package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/layout"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
	"repro/internal/traffic"
)

// The control-plane workloads have no dataplane. On admission-churn a
// controller with an audit log is filled to saturation from a seeded
// request stream and the stream is churned at steady state; on
// layout-synth, layout synthesis places hotspot-skewed traffic matrices
// on fresh controllers.
const (
	cpW, cpH = 16, 16
	// fillRequests is the stream prefix the fill offers the controller:
	// enough to saturate the 16x16 mesh, fixed so every seed's fill does
	// the same number of admissions and audit records.
	fillRequests = 12000
	// churnAdmitCap bounds the admits one churn step may try before it
	// moves on with one channel fewer.
	churnAdmitCap = 2000
	// checkpointOps is the churn operation count every run completes
	// before its digest and Reference replay; the timed churn continues
	// past it for the rest of its time.
	checkpointOps = 4000
	// churnBlock is the operations per throughput sample.
	churnBlock = 500
	// synthRequests is the traffic-matrix size per synthesis round.
	synthRequests = 384
	// churnSetups is the fills per untraced run; setup_s is their
	// median. A fill takes half a second, so five cost little and
	// steady it.
	churnSetups = 5
	// synthSetups is the warm-up syntheses per untraced run. One takes
	// a tenth of a second and its CPU time varies by a tenth either
	// way, so the median of seven.
	synthSetups = 7
)

// request is one control-plane channel request.
type request struct {
	src  mesh.Coord
	dsts []mesh.Coord
	spec rtc.Spec
}

// drawRequest draws from the control-plane stream: Imin from 8 to 64
// slots, one- or two-packet messages, tight deadlines (per-hop d below
// Imin) and loose ones in equal measure, and one request in eight
// multicast to two or three destinations.
func drawRequest(rng *rand.Rand, w, h int) request {
	src := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
	n := 1
	if rng.Intn(8) == 0 {
		n = 2 + rng.Intn(2)
	}
	dsts := make([]mesh.Coord, 0, n)
	far := 0
	for len(dsts) < n {
		d := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
		if d == src || contains(dsts, d) {
			continue
		}
		dsts = append(dsts, d)
		if k := dist(src, d); k > far {
			far = k
		}
	}
	imin := int64(8 + rng.Intn(57))
	size := traffic.ProbeBytes + rng.Intn(2*packet.TCPayloadBytes-traffic.ProbeBytes+1)
	ppm := int64((size + packet.TCPayloadBytes - 1) / packet.TCPayloadBytes)
	hops := int64(far + 1)
	var d int64
	if rng.Intn(2) == 0 {
		d = ppm + int64(rng.Intn(int(imin)))
	} else {
		d = imin + int64(rng.Intn(int(imin)))
	}
	if d > 100 {
		d = 100
	}
	return request{src: src, dsts: dsts, spec: rtc.Spec{Imin: imin, Smax: size, D: hops * d}}
}

func contains(cs []mesh.Coord, c mesh.Coord) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// drawMatrix draws the synthesis traffic matrix: unicast requests whose
// destination lies in the mesh's center column with probability 3/4,
// uniform otherwise. The hot column stays put across seeds: an edge
// column holds fewer channels than a center one, which would make the
// seed, not the program, set how much search each round does.
func drawMatrix(rng *rand.Rand, w, h, n int) []layout.Request {
	hotX := w / 2
	reqs := make([]layout.Request, 0, n)
	for len(reqs) < n {
		src := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
		dst := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
		if rng.Intn(4) != 0 {
			dst.X = hotX
		}
		if dst == src {
			continue
		}
		imin := int64(12 + rng.Intn(37))
		size := traffic.ProbeBytes + rng.Intn(2*packet.TCPayloadBytes-traffic.ProbeBytes+1)
		hops := int64(dist(src, dst) + 1)
		d := imin/2 + int64(rng.Intn(int(imin)))
		reqs = append(reqs, layout.Request{Src: src, Dst: dst, Spec: rtc.Spec{Imin: imin, Smax: size, D: hops * d}})
	}
	return reqs
}

// cpOp is one recorded control-plane operation for the Reference replay.
type cpOp struct {
	teardown int // index into the live list torn down; -1 for an admit
	req      request
	accepted bool
}

// controlPlane is one control-plane pass's state.
type controlPlane struct {
	tr   *tracer
	ctl  *admission.Controller
	aud  *obs.AuditLog
	rng  *rand.Rand // the request stream and churn choices
	live []*admission.Channel
	log  []cpOp // fill and churn up to the checkpoint
}

func newController(reference bool) (*admission.Controller, *mesh.Network, error) {
	net, err := mesh.New(cpW, cpH, router.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	cfg := admission.DefaultConfig()
	cfg.Reference = reference
	ctl, err := admission.New(net, cfg)
	if err != nil {
		return nil, nil, err
	}
	return ctl, net, nil
}

// fill builds a fresh controller with an audit log and offers it the
// stream's first fillRequests requests.
func fill(seed int64, tr *tracer) (*controlPlane, error) {
	id := tr.begin("admission.New")
	ctl, _, err := newController(false)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	cp := &controlPlane{tr: tr, ctl: ctl, aud: obs.NewAuditLog(), rng: rand.New(rand.NewSource(seed))}
	ctl.AttachAudit(cp.aud)
	for i := 0; i < fillRequests; i++ {
		cp.admit(drawRequest(cp.rng, cpW, cpH))
	}
	return cp, nil
}

// admit calls Admit, records the operation while the log is open, and
// returns the channel (nil on refusal) and the call's latency.
func (cp *controlPlane) admit(req request) (*admission.Channel, time.Duration) {
	id := cp.tr.begin("admission.Admit")
	t0 := time.Now()
	ch, err := cp.ctl.Admit(req.src, req.dsts, req.spec)
	dt := time.Since(t0)
	verdict := "admission.Admit.accept"
	if err != nil {
		verdict = "admission.Admit.reject"
		ch = nil
	}
	cp.tr.endAs(id, verdict)
	if cp.log != nil {
		cp.log = append(cp.log, cpOp{teardown: -1, req: req, accepted: ch != nil})
	}
	if ch != nil {
		cp.live = append(cp.live, ch)
	}
	return ch, dt
}

// teardown removes live channel i (swap-delete).
func (cp *controlPlane) teardown(i int) error {
	id := cp.tr.begin("admission.Teardown")
	err := cp.ctl.Teardown(cp.live[i])
	cp.tr.end(id)
	if err != nil {
		return fmt.Errorf("teardown of channel %d: %w", cp.live[i].ID, err)
	}
	if cp.log != nil {
		cp.log = append(cp.log, cpOp{teardown: i})
	}
	last := len(cp.live) - 1
	cp.live[i] = cp.live[last]
	cp.live = cp.live[:last]
	return nil
}

// churnStep tears down a random live channel, then admits from the
// stream until one request is accepted (or churnAdmitCap are refused).
// It returns the operations made and the latency of each Admit.
func (cp *controlPlane) churnStep(lat []time.Duration) (int, []time.Duration, error) {
	if len(cp.live) == 0 {
		return 0, lat, errors.New("churn: no live channel to tear down")
	}
	if err := cp.teardown(cp.rng.Intn(len(cp.live))); err != nil {
		return 0, lat, err
	}
	ops := 1
	for i := 0; i < churnAdmitCap; i++ {
		ch, dt := cp.admit(drawRequest(cp.rng, cpW, cpH))
		lat = append(lat, dt)
		ops++
		if ch != nil {
			break
		}
	}
	return ops, lat, nil
}

// runChurnPass fills (setups times, keeping the last), churns for
// seconds, then checks the outputs: the ledger after the fill, at the
// checkpoint and at the end, and a Reference-mode replay of the fill
// and the churn up to the checkpoint.
func runChurnPass(seed int64, seconds float64, setups int, traced bool, outDir string) (*outcome, error) {
	tr := newTracer(traced)
	o := newOutcome()
	var cp *controlPlane
	for i := 0; i < setups; i++ {
		cp = nil
		runtime.GC()
		c0 := cpuSeconds()
		var err error
		cp, err = fill(seed, tr)
		if err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, cpuSeconds()-c0)
	}
	o.heapMB = liveHeapMB()
	fillAccepted := len(cp.live)
	verifyMS := []float64{}
	verify := func(what string) error {
		t0 := time.Now()
		id := tr.begin("admission.VerifyLedger")
		err := cp.ctl.VerifyLedger()
		tr.end(id)
		verifyMS = append(verifyMS, float64(time.Since(t0).Microseconds())/1e3)
		if err != nil {
			return fmt.Errorf("VerifyLedger after %s: %w", what, err)
		}
		return checkChannels(cp.ctl, cp.live, tr)
	}
	o.fail(verify("the fill"))

	// The fill is replayed from the seed; the churn up to the checkpoint
	// is logged as it runs.
	cp.log = []cpOp{}

	var prof *cpuProfile
	if traced {
		var err error
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
	}
	churnFor := time.Duration(seconds * float64(time.Second))
	var lat []time.Duration
	var rates []float64
	var checkpointDigest string
	var checkpointLog []cpOp
	steps, ops := 0, 0
	began := time.Now()
	for ops < checkpointOps || time.Since(began) < churnFor {
		c0 := cpuSeconds()
		blockOps := 0
		for blockOps < churnBlock {
			n, l, err := cp.churnStep(lat)
			if err != nil {
				return nil, err
			}
			lat = l
			blockOps += n
			steps++
		}
		rates = append(rates, float64(blockOps)/(cpuSeconds()-c0))
		ops += blockOps
		if checkpointLog == nil && ops >= checkpointOps {
			checkpointLog = cp.log
			cp.log = nil
			checkpointDigest = cp.digest()
			o.fail(verify("the churn checkpoint"))
		}
	}
	var byFn map[string]int64
	if traced {
		var err error
		if byFn, err = prof.stop(outDir + "/admission-churn.pprof"); err != nil {
			return nil, err
		}
	}
	o.opsPerS = sustained(rates)
	o.attempted = int64(ops)
	sortDurations(lat)
	o.fail(verify("the churn"))

	t0 := time.Now()
	id := tr.begin("admission.ReferenceReplay")
	o.fail(replayReference(seed, checkpointLog, checkpointDigest))
	tr.end(id)
	o.digest = checkpointDigest
	o.summary = []string{
		fmt.Sprintf("admission-churn seed %d: fill admitted %d of %d requests; churn %d steps, %d ops",
			seed, fillAccepted, fillRequests, steps, ops),
		fmt.Sprintf("  admit latency over %d Admit calls: p50 %.2f us, p99 %.2f us; Reference replay %.1f s",
			len(lat), durationQuantileUs(lat, 0.50), durationQuantileUs(lat, 0.99), time.Since(t0).Seconds()),
	}

	if traced {
		L := o.layer
		for _, v := range []struct{ span, name string }{
			{"admission.Admit.accept", "admission.accept_us"},
			{"admission.Admit.reject", "admission.reject_us"},
			{"admission.Teardown", "admission.teardown_us"},
		} {
			ds := tr.durations(v.span)
			L[v.name+".p50"] = quantileUs(ds, 0.50)
			L[v.name+".p99"] = quantileUs(ds, 0.99)
		}
		st := cp.ctl.Stats()
		L["admission.accepts"] = float64(st.Admits)
		L["admission.rejects"] = float64(st.Rejects)
		L["admission.teardowns"] = float64(st.Teardowns)
		L["obs.audit_records"] = float64(cp.aud.Len())
		L["admission.verify_ledger_ms"] = median(verifyMS)
		L["admission.seal_ms"] = median(durationsMS(tr.durations("admission.Seal")))
		profileLayers(L, byFn, float64(ops))
		if err := tr.write(outDir + "/admission-churn.spans.jsonl"); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// warmupSeed draws the matrix a layout-synth set-up synthesizes. It is
// the same on every seed, so every run's set-up does the same search.
const warmupSeed = -1

// runSynthPass synthesizes the warm-up matrix on a fresh controller
// (setups times), then runs synthesis rounds for seconds, each on a
// fresh controller over its own matrix drawn from the seed and the
// round number, and checks the first round. How much search a matrix
// needs varies with its draw by a quarter either way; the rate over all
// of a run's matrices varies far less.
func runSynthPass(seed int64, seconds float64, setups int, traced bool, outDir string) (*outcome, error) {
	tr := newTracer(traced)
	o := newOutcome()
	warm := drawMatrix(rand.New(rand.NewSource(warmupSeed)), cpW, cpH, synthRequests)
	var warmCtl *admission.Controller
	for i := 0; i < setups; i++ {
		warmCtl = nil
		runtime.GC()
		c0 := cpuSeconds()
		ctl, net, err := newController(false)
		if err != nil {
			return nil, err
		}
		layout.Synthesize(net, ctl, warm, layout.Options{})
		warmCtl = ctl
		o.setupS = append(o.setupS, cpuSeconds()-c0)
	}
	o.heapMB = liveHeapMB()
	runtime.KeepAlive(warmCtl)
	warmCtl = nil

	var prof *cpuProfile
	if traced {
		var err error
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
	}
	var first *layout.Result
	var firstCtl *admission.Controller
	synthFor := time.Duration(seconds * float64(time.Second))
	began := time.Now()
	rounds, probes, repairs := 0, 0, 0
	var synthCPU float64
	for rounds < 1 || time.Since(began) < synthFor {
		ctl, net, err := newController(false)
		if err != nil {
			return nil, err
		}
		matrix := drawMatrix(rand.New(rand.NewSource(seed*1000+int64(rounds)+1)), cpW, cpH, synthRequests)
		id := tr.begin("layout.Synthesize")
		c0 := cpuSeconds()
		res := layout.Synthesize(net, ctl, matrix, layout.Options{})
		cpu := cpuSeconds() - c0
		tr.end(id)
		synthCPU += cpu
		probes += res.Stats.Probes
		repairs += res.Stats.Repairs
		if first == nil {
			first, firstCtl = res, ctl
		}
		rounds++
	}
	var byFn map[string]int64
	if traced {
		var err error
		if byFn, err = prof.stop(outDir + "/layout-synth.pprof"); err != nil {
			return nil, err
		}
	}
	nreq := rounds * synthRequests
	o.opsPerS = float64(nreq) / synthCPU
	o.attempted = int64(nreq)
	o.fail(checkSynthesis(firstCtl, first, tr))
	o.digest = synthDigest(firstCtl, first)
	o.summary = []string{fmt.Sprintf("layout-synth seed %d: %d rounds of %d requests; the first placed %d; %.1f probes and %.2f repairs per request",
		seed, rounds, synthRequests, len(first.Admitted), float64(probes)/float64(nreq), float64(repairs)/float64(nreq))}

	if traced {
		L := o.layer
		L["layout.probes_per_request"] = float64(probes) / float64(nreq)
		L["layout.repairs_per_request"] = float64(repairs) / float64(nreq)
		if probes > 0 {
			L["layout.probe_us"] = synthCPU / float64(probes) * 1e6
		}
		L["layout.admitted"] = float64(len(first.Admitted))
		L["layout.rerouted"] = float64(first.Stats.Rerouted)
		L["layout.nonuniform"] = float64(first.Stats.Nonuniform)
		L["admission.verify_ledger_ms"] = median(durationsMS(tr.durations("admission.VerifyLedger")))
		L["admission.seal_ms"] = median(durationsMS(tr.durations("admission.Seal")))
		profileLayers(L, byFn, float64(nreq))
		if err := tr.write(outDir + "/layout-synth.spans.jsonl"); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// digest hashes the controller's state: the admitted set, the sealed
// ledger and the audit log.
func (cp *controlPlane) digest() string {
	d := newDigest()
	for _, ch := range sortedChannels(cp.live) {
		d.add("chan %d %s %v %s d=%d %v\n", ch.ID, ch.Src, ch.Dsts, ch.Route(), ch.LocalD, ch.DSplit)
	}
	id := cp.tr.begin("admission.Seal")
	snap := cp.ctl.Seal()
	cp.tr.end(id)
	d.addJSON(snap)
	d.add("audit %016x\n", cp.aud.DumpHash())
	return d.sum()
}

func synthDigest(ctl *admission.Controller, res *layout.Result) string {
	d := newDigest()
	for _, a := range res.Admitted {
		d.add("plan %d %s %v %v\n", a.Request, a.Channel.Route(), a.Plan.Route, a.Plan.DSplit)
	}
	d.add("rejected %d\n", len(res.Rejected))
	d.addJSON(ctl.Seal())
	return d.sum()
}

// checkChannels checks the live channel set by recomputation: every
// link's Σ C/Imin at most 1, and the sealed ledger equal to the
// reservations the routes imply.
func checkChannels(ctl *admission.Controller, live []*admission.Channel, tr *tracer) error {
	rs := make([]reservation, len(live))
	for i, ch := range live {
		rs[i] = reservationOf(ch)
	}
	if err := checkUtilization(rs); err != nil {
		return err
	}
	id := tr.begin("admission.Seal")
	snap := ctl.Seal()
	tr.end(id)
	return checkLedger(snap, rs)
}

// checkSynthesis checks a synthesis round: every plan Manhattan-minimal
// with Σ d_j ≤ D, the ledger conserved and schedulable by
// recomputation, and every plan re-admitted by a Reference-mode
// controller.
func checkSynthesis(ctl *admission.Controller, res *layout.Result, tr *tracer) error {
	if len(res.Admitted) == 0 {
		return errors.New("synthesis admitted nothing")
	}
	chans := make([]*admission.Channel, len(res.Admitted))
	for i, a := range res.Admitted {
		if err := checkPlan(a.Plan); err != nil {
			return err
		}
		chans[i] = a.Channel
	}
	id := tr.begin("admission.VerifyLedger")
	err := ctl.VerifyLedger()
	tr.end(id)
	if err != nil {
		return fmt.Errorf("VerifyLedger after synthesis: %w", err)
	}
	if err := checkChannels(ctl, chans, tr); err != nil {
		return fmt.Errorf("synthesis: %w", err)
	}
	ref, _, err := newController(true)
	if err != nil {
		return err
	}
	for _, a := range res.Admitted {
		if _, err := ref.AdmitLayout(a.Plan); err != nil {
			return fmt.Errorf("Reference controller refuses synthesized plan for request %d: %w", a.Request, err)
		}
	}
	return nil
}

// replayReference replays the fill and the logged churn on a
// Reference-mode controller — the from-scratch analysis with every
// fast path off — and requires the same verdict for every request and
// the same state digest at the checkpoint.
func replayReference(seed int64, log []cpOp, want string) error {
	ctl, _, err := newController(true)
	if err != nil {
		return err
	}
	ref := &controlPlane{tr: newTracer(false), ctl: ctl, aud: obs.NewAuditLog(), rng: rand.New(rand.NewSource(seed))}
	ctl.AttachAudit(ref.aud)
	// The fill draws from the same seeded stream.
	for i := 0; i < fillRequests; i++ {
		ref.admit(drawRequest(ref.rng, cpW, cpH))
	}
	for i, op := range log {
		if op.teardown >= 0 {
			if err := ref.teardown(op.teardown); err != nil {
				return fmt.Errorf("Reference replay op %d: %w", i, err)
			}
			continue
		}
		ch, _ := ref.admit(op.req)
		if (ch != nil) != op.accepted {
			return fmt.Errorf("Reference replay op %d: %s->%v %+v accepted=%v, the default controller said %v",
				i, op.req.src, op.req.dsts, op.req.spec, ch != nil, op.accepted)
		}
	}
	if got := ref.digest(); got != want {
		return fmt.Errorf("Reference replay reaches state digest %s, the default controller %s", got, want)
	}
	return nil
}

func sortedChannels(cs []*admission.Channel) []*admission.Channel {
	out := append([]*admission.Channel(nil), cs...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
