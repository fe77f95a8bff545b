package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/scenario"
	"repro/internal/server"
)

// simSecondsPerFleet is the simulated length of one fleet run's
// measured portion (FleetConfig.Duration's default).
const simSecondsPerFleet = 10.0

// fleetRun is one complete scenario.Fleet run as the benchmark saw it.
type fleetRun struct {
	res      scenario.FleetResult
	resident uint64 // live heap added by NewFleet
	cost     delta  // StepTick loop + Finish
	tickMs   []float64
}

func fleetConfig(seed uint64, devices, k int) scenario.FleetConfig {
	return scenario.FleetConfig{Seed: seed, Devices: devices, Shards: k, Workers: k}
}

// runFleet drives NewFleet / StepTick / Finish once at k shards and k
// workers, with a span around every call.
func runFleet(seed uint64, devices, k int, rec *recorder) fleetRun {
	var out fleetRun
	root := rec.begin("fleet.run", -1, 0)

	base := liveHeap()
	sp := rec.begin("fleet.setup", root, 0)
	f := scenario.NewFleet(fleetConfig(seed, devices, k))
	rec.end(sp)
	if after := liveHeap(); after > base {
		out.resident = after - base
	}

	u0 := readUsage()
	for more := true; more; {
		sp := rec.begin("fleet.tick", root, 0)
		t := time.Now()
		more = f.StepTick()
		out.tickMs = append(out.tickMs, ms(time.Since(t)))
		rec.end(sp)
	}
	sp = rec.begin("fleet.finish", root, 0)
	out.res = f.Finish()
	rec.end(sp)
	out.cost = readUsage().since(u0)
	rec.end(root)
	return out
}

// checkFleet counts the conservation rules a finished fleet run must
// satisfy: every captured frame went local or was offloaded, and after
// the drain window every offload has a terminal outcome.
func checkFleet(r scenario.FleetResult) []string {
	var bad []string
	if r.InvariantErr != nil {
		bad = append(bad, "invariant: "+r.InvariantErr.Error())
	}
	if r.Captured != r.LocalDone+r.LocalDropped+r.OffloadAttempts {
		bad = append(bad, fmt.Sprintf("captured %d != local done %d + local dropped %d + attempts %d",
			r.Captured, r.LocalDone, r.LocalDropped, r.OffloadAttempts))
	}
	if r.OffloadAttempts != r.OffloadOK+r.OffloadTimedOut+r.OffloadRejected {
		bad = append(bad, fmt.Sprintf("attempts %d != ok %d + timed out %d + rejected %d",
			r.OffloadAttempts, r.OffloadOK, r.OffloadTimedOut, r.OffloadRejected))
	}
	if r.StateHash == 0 || r.Events == 0 {
		bad = append(bad, "degenerate fleet run")
	}
	return bad
}

// serverCounters fills the DES server's workload-scoped layer metrics.
func serverCounters(m metricSet, st server.Stats, simSeconds float64) {
	m.set("server.submitted", float64(st.Submitted), "count")
	m.set("server.completed_share", ratio(float64(st.Completed), float64(st.Submitted)), "ratio")
	m.set("server.mean_batch", st.MeanBatchSize(), "count")
	m.set("server.busy_share", ratio(st.BusyTime.Seconds(), simSeconds), "ratio")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fleetTablev runs one fleet after another at Shards=Workers=1, on
// seed, seed+1, ..., until the time budget is spent, then runs the
// first seed once more at Shards=Workers=2 for the StateHash equality
// check. The simulated statistics and the digest are the first run's,
// so they repeat exactly at a fixed seed however many runs fit.
func fleetTablev(o runOpts) *result {
	res := newResult("fleet_tablev")
	devices := o.size.fleetDevices

	// A fleet that is never stepped holds no goroutines (K=1), so the
	// set-up can be timed on its own and dropped.
	setups, _ := o.timeSetups(func() (func(), error) {
		scenario.NewFleet(fleetConfig(o.seed, devices, 1))
		return func() {}, nil
	})

	deadline := time.Now().Add(o.window())
	var runs []fleetRun
	for len(runs) < o.size.fleetMinRuns || time.Now().Before(deadline) {
		runs = append(runs, runFleet(o.seed+uint64(len(runs)), devices, 1, o.rec))
	}
	first := runs[0].res

	// Allocation figures are the least over the window's runs: how far
	// the merge scratch regrows depends on the seed's largest burst and
	// moves bytes per device by a factor of two from seed to seed.
	var evps, resident, ticks []float64
	allocs, bytes := math.Inf(1), math.Inf(1)
	var total delta
	var frames float64
	for i, r := range runs {
		res.check(fmt.Sprintf("fleet run %d", i), checkFleet(r.res)...)
		evps = append(evps, float64(r.res.Events)/r.cost.wall.Seconds())
		allocs = math.Min(allocs, float64(r.cost.mallocs)/float64(devices))
		bytes = math.Min(bytes, float64(r.cost.bytes)/float64(devices))
		resident = append(resident, float64(r.resident)/float64(devices))
		ticks = append(ticks, r.tickMs...)
		total.add(r.cost)
		frames += float64(r.res.Captured)
	}

	// The scaling pass is an output check first: the flat fleet's
	// result must not depend on the shard count. (Events is not
	// compared: every extra shard fires its own network-phase events,
	// five per run.)
	k2 := runFleet(o.seed, devices, 2, o.rec)
	res.check("fleet run K=2", checkFleet(k2.res)...)
	if k2.res.StateHash != first.StateHash {
		res.fail(fmt.Sprintf("StateHash K=2 %x != K=1 %x", k2.res.StateHash, first.StateHash))
	}

	sortedTicks := sortedCopy(ticks)
	e := res.E2E
	e.set("setup_s", median(setups), "s")
	e.set("events_per_s", median(evps), "1/s")
	e.set("allocs_per_op", allocs, "count")
	e.set("alloc_bytes_per_op", bytes, "B")
	e.set("resident_bytes_per_device", median(resident), "B")
	e.set("goodput_fps", float64(first.LocalDone+first.OffloadOK)/simSecondsPerFleet/float64(devices), "1/s")
	e.set("offload_p50_ms", percentile(sortedTicks, 0.50), "ms")
	e.set("offload_p95_ms", percentile(sortedTicks, 0.95), "ms")
	e.set("cpu_s_per_mframe", total.cpu.Seconds()/(frames/1e6), "s")
	e.set("settled_ratio", ratio(float64(first.LocalDone+first.OffloadOK), float64(first.Captured)), "ratio")

	res.tail(sortedTicks)
	l := res.Layer
	serverCounters(l, first.Server, simSecondsPerFleet+1)
	l.set("scenario.fleet.events", float64(first.Events), "count")
	l.set("scenario.fleet.offload_attempts", float64(first.OffloadAttempts), "count")
	k1Wall := runs[0].cost.wall.Seconds()
	l.set("simtime.sharded.speedup_k2_x", ratio(k1Wall, k2.cost.wall.Seconds()), "x")
	l.set("simtime.sharded.alloc_mb_k2", float64(k2.cost.bytes)/1e6, "MB")

	res.Info["devices"] = devices
	res.Info["runs"] = len(runs)
	res.Info["events_per_run"] = first.Events
	res.Info["state_hash"] = fmt.Sprintf("%016x", first.StateHash)
	res.Info["latency_unit"] = "wall ms per StepTick"
	res.Info["latency_samples"] = len(ticks)
	res.Info["shed_share"] = ratio(float64(first.Server.Rejected), float64(first.Server.Submitted))

	// Budget model inputs. FleetResult.Events counts one logical event
	// per capture, but a sweep captures for a whole shard in a single
	// scheduler event, so captures are taken out. Every uplink that
	// reaches the server is a cross-shard message and so is its
	// response; every attempt walks the uplink once and every response
	// the downlink once.
	st := first.Server
	res.counts = layerCounts{
		wall:        k1Wall,
		events:      float64(first.Events - first.Captured),
		wheel:       true,
		shardMsgs:   float64(st.Submitted + st.Completed + st.Rejected),
		transfersAt: float64(first.OffloadAttempts + st.Completed + st.Rejected),
		lossyShare:  0.3, // DefaultFleetSchedule: 7 % loss from 7 s to 10 s
		submitsDone: float64(st.Completed),
		submitsShed: float64(st.Rejected),
		flatTicks:   float64(devices) * float64(first.Ticks),
	}
	res.Attempted = int64(len(runs) + 1)
	return res
}

// suiteConfigs is one pass of the paper's evaluation: every policy on
// the network (Table V) and server-load (Table VI) experiments plus
// the four Figure 2 tuning pairs, all on one seed.
func suiteConfigs(seed uint64) []scenario.Config {
	var cfgs []scenario.Config
	policies := scenario.AllPolicies()
	for _, name := range scenario.PolicyOrder() {
		cfgs = append(cfgs,
			scenario.NetworkExperiment(policies[name]),
			scenario.ServerLoadExperiment(policies[name]))
	}
	for _, p := range scenario.TuningPairs() {
		cfgs = append(cfgs, scenario.TuningExperiment(p[0], p[1]))
	}
	for i := range cfgs {
		cfgs[i].Seed = seed
	}
	return cfgs
}

// suitePass is what one pass over suiteConfigs produced.
type suitePass struct {
	results []*scenario.Result
	wallUs  []float64
	events  uint64
	wall    time.Duration
	digest  fnv
}

func runSuitePass(seed uint64, rec *recorder, parent int32) suitePass {
	cfgs := suiteConfigs(seed)
	p := suitePass{digest: newFNV()}
	start := time.Now()
	for _, cfg := range cfgs {
		sp := rec.begin("scenario.run", parent, 0)
		t := time.Now()
		r := scenario.Run(cfg)
		p.wallUs = append(p.wallUs, float64(time.Since(t))/1e3)
		rec.end(sp)
		p.results = append(p.results, r)
		p.events += r.EventsFired
		digestResult(&p.digest, r)
	}
	p.wall = time.Since(start)
	return p
}

func digestResult(h *fnv, r *scenario.Result) {
	h.mix(r.EventsFired)
	d := r.Device
	for _, v := range []uint64{d.Captured, d.OffloadAttempts, d.OffloadOK, d.OffloadTimedOut,
		d.OffloadRejected, d.LocalDone, d.LocalDropped,
		r.Server.Submitted, r.Server.Completed, r.Server.Rejected, r.Server.Batches} {
		h.mix(v)
	}
	for _, p := range r.P {
		h.mix(math.Float64bits(p))
	}
	for _, p := range r.Po {
		h.mix(math.Float64bits(p))
	}
}

// checkResult is the measured device's conservation rule; frames still
// in flight when the run's drain window closes are the only slack.
func checkResult(r *scenario.Result) []string {
	d := r.Device
	var bad []string
	local := d.LocalDone + d.LocalDropped
	if d.Captured < local+d.OffloadAttempts || d.Captured-local-d.OffloadAttempts > 3 {
		bad = append(bad, fmt.Sprintf("%s: captured %d vs local %d + attempts %d",
			r.PolicyName, d.Captured, local, d.OffloadAttempts))
	}
	resolved := d.OffloadOK + d.OffloadTimedOut + d.OffloadRejected
	if d.OffloadAttempts != resolved {
		bad = append(bad, fmt.Sprintf("%s: attempts %d != resolved %d", r.PolicyName, d.OffloadAttempts, resolved))
	}
	if r.EventsFired == 0 {
		bad = append(bad, r.PolicyName+": no events fired")
	}
	return bad
}

// paperSuite runs sequential passes of the paper's evaluation on seed,
// seed+1, ... until the time budget is spent.
func paperSuite(o runOpts) *result {
	res := newResult("paper_suite")

	// Set-up is building the configs plus pass 0, which fills the
	// scheduler, link and request pools; it is repeated so the
	// reported figure is a median. Pass 0 doubles as the determinism
	// check: the same seed must give the same digest every time.
	var pass0 suitePass
	reruns := 0
	setups, _ := o.timeSetups(func() (func(), error) {
		p := runSuitePass(o.seed, nil, -1)
		if reruns > 0 && p.digest != pass0.digest {
			res.fail(fmt.Sprintf("pass 0 digest %016x != %016x on rerun %d", uint64(p.digest), uint64(pass0.digest), reruns))
		}
		pass0 = p
		reruns++
		return func() {}, nil
	})
	for _, r := range pass0.results {
		res.check("pass 0", checkResult(r)...)
	}

	deadline := time.Now().Add(o.window())
	var evps, runUs []float64
	var events, runs, captured uint64
	var ctlTicks, offloads, simSecondsAll float64
	var last suitePass
	var srv server.Stats
	u0 := readUsage()
	root := o.rec.begin("suite", -1, 0)
	for pass := uint64(1); pass <= uint64(o.size.suiteMinPasses) || time.Now().Before(deadline); pass++ {
		p := runSuitePass(o.seed+pass, o.rec, root)
		evps = append(evps, float64(p.events)/p.wall.Seconds())
		runUs = append(runUs, p.wallUs...)
		events += p.events
		for _, r := range p.results {
			runs++
			captured += r.Device.Captured
			simSecondsAll += float64(r.Ticks)
			ctlTicks += float64(r.Ticks * len(r.Tenants))
			offloads += float64(r.Server.Submitted - r.InjectedSubmitted)
			srv.Submitted += r.Server.Submitted
			srv.Completed += r.Server.Completed
			srv.Rejected += r.Server.Rejected
			srv.Batches += r.Server.Batches
			srv.BatchSizeSum += r.Server.BatchSizeSum
			srv.BusyTime += r.Server.BusyTime
			if bad := checkResult(r); len(bad) > 0 {
				res.check(fmt.Sprintf("pass %d", pass), bad...)
			}
		}
		last = p
	}
	o.rec.end(root)
	cost := readUsage().since(u0)

	// What a sweep keeps per simulated device: the last pass's results
	// are still referenced until released.
	devices := 0
	for _, r := range last.results {
		devices += len(r.Tenants)
	}
	resident := retained(func() { last = suitePass{} })

	// The simulated statistics are pass 0's, so they repeat exactly at
	// a fixed seed however many passes fit.
	var served, simCaptured, simSeconds float64
	for _, r := range pass0.results {
		served += float64(r.Device.LocalDone + r.Device.OffloadOK)
		simCaptured += float64(r.Device.Captured)
		simSeconds += float64(r.Ticks)
	}

	sortedMs := sortedCopy(runUs)
	for i := range sortedMs {
		sortedMs[i] /= 1e3
	}
	e := res.E2E
	e.set("setup_s", median(setups), "s")
	e.set("events_per_s", median(evps), "1/s")
	e.set("allocs_per_op", float64(cost.mallocs)/float64(runs), "count")
	e.set("alloc_bytes_per_op", float64(cost.bytes)/float64(runs), "B")
	e.set("resident_bytes_per_device", ratio(float64(resident), float64(devices)), "B")
	e.set("goodput_fps", ratio(served, simSeconds), "1/s")
	e.set("offload_p50_ms", percentile(sortedMs, 0.50), "ms")
	e.set("offload_p95_ms", percentile(sortedMs, 0.95), "ms")
	e.set("cpu_s_per_mframe", cost.cpu.Seconds()/(float64(captured)/1e6), "s")
	e.set("settled_ratio", ratio(served, simCaptured), "ratio")

	res.tail(sortedMs)
	serverCounters(res.Layer, srv, simSecondsAll)
	res.Layer.set("scenario.run.events_per_run", ratio(float64(events), float64(runs)), "count")

	res.Info["passes"] = len(evps)
	res.Info["runs"] = runs
	res.Info["events"] = events
	res.Info["pass0_digest"] = fmt.Sprintf("%016x", uint64(pass0.digest))
	res.Info["pass0_events"] = pass0.events
	res.Info["latency_unit"] = "wall ms per scenario.Run"
	res.Info["latency_samples"] = len(runUs)

	// Budget model inputs: the event-driven path sends each offload up
	// and its answer down through Link.SendTo (background load is
	// injected at the server and never crosses a link). SendTo's unit
	// cost includes its one scheduler event, which is taken out of the
	// scheduler's count.
	sendTos := 2 * offloads
	res.counts = layerCounts{
		wall:        cost.wall.Seconds(),
		events:      float64(events) - sendTos,
		sendTos:     sendTos,
		lossyShare:  0.3,
		submitsDone: float64(srv.Completed),
		submitsShed: float64(srv.Rejected),
		ffTicks:     ctlTicks,
	}
	res.Attempted = int64(runs) + int64(reruns*len(pass0.results))
	return res
}
