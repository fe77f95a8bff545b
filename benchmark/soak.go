package main

import (
	"fmt"
	"time"

	"repro/internal/frame"
	"repro/internal/loadgen"
	"repro/internal/realnet"
)

// soakRig is the whole trip: loadgen engine -> fault proxy (no faults
// set) -> server.
type soakRig struct {
	srv *realnet.Server
	px  *realnet.Proxy
	eng *loadgen.Engine
}

func (r *soakRig) close() {
	if r.eng != nil {
		r.eng.Close()
	}
	if r.px != nil {
		r.px.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
}

const soakConns = 2

func newSoakRig(seed uint64, devices int, tick time.Duration) (*soakRig, error) {
	r := &soakRig{}
	var err error
	r.srv, err = realnet.NewServer(realnet.ServerConfig{Addr: "127.0.0.1:0", MaxBatch: 15, TimeScale: 1})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	r.px, err = realnet.NewProxy(realnet.ProxyConfig{Addr: "127.0.0.1:0", Target: r.srv.Addr().String(), Seed: seed})
	if err != nil {
		r.close()
		return nil, fmt.Errorf("start proxy: %w", err)
	}
	r.eng, err = loadgen.New(loadgen.Config{
		Addr:    r.px.Addr().String(),
		Devices: devices,
		Conns:   soakConns,
		Workers: 2,
		Seed:    seed,
		Tick:    tick,
	})
	if err != nil {
		r.close()
		return nil, fmt.Errorf("start engine: %w", err)
	}
	for deadline := time.Now().Add(2 * time.Second); r.eng.ConnsUp() < soakConns; {
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("engine connections up: %d of %d", r.eng.ConnsUp(), soakConns)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return r, nil
}

// nextSnapshot waits for the engine's aggregator to publish a fresh
// Snapshot (it refreshes once per controller tick) and returns it with
// the process counters read at that moment.
func nextSnapshot(eng *loadgen.Engine, prev loadgen.Snapshot, tick time.Duration) (loadgen.Snapshot, usage) {
	for deadline := time.Now().Add(3 * tick); time.Now().Before(deadline); {
		if s := eng.Snapshot(); s.Captured != prev.Captured {
			return s, readUsage()
		}
		time.Sleep(tick / 500)
	}
	return eng.Snapshot(), readUsage()
}

// checkSnapshot is the live plane's conservation rule. The engine's
// counters are read one after another while its workers run, so the
// slack is one step of captures per device on top of what may really
// be pending (local: one running and two queued; offloads: a
// deadline's worth in flight).
func checkSnapshot(s loadgen.Snapshot, devices int) []string {
	var bad []string
	step := int64(4 * devices)
	local := int64(s.Captured) - int64(s.LocalDone+s.LocalDropped+s.OffloadAttempts)
	if local < -step || local > int64(3*devices)+step {
		bad = append(bad, fmt.Sprintf("captured %d vs local done %d + local dropped %d + attempts %d (pending %d)",
			s.Captured, s.LocalDone, s.LocalDropped, s.OffloadAttempts, local))
	}
	inFlight := int64(s.OffloadAttempts) - int64(s.OffloadOK+s.OffloadTimedOut+s.OffloadRejected)
	if inFlight < -step || inFlight > int64(8*devices)+step {
		bad = append(bad, fmt.Sprintf("attempts %d vs ok %d + timed out %d + rejected %d (in flight %d)",
			s.OffloadAttempts, s.OffloadOK, s.OffloadTimedOut, s.OffloadRejected, inFlight))
	}
	if s.SendErrors > 0 {
		bad = append(bad, fmt.Sprintf("%d send errors", s.SendErrors))
	}
	return bad
}

// soakFleet measures the loadgen -> proxy -> server trip. Counters are
// Snapshot deltas over a window that starts and ends on a Snapshot
// refresh; latency comes from the benchmark's own open-loop probe
// through the same proxy, because the engine keeps no latency sample.
func soakFleet(o runOpts) *result {
	res := newResult("soak_fleet")
	devices := o.size.soakDevices

	build := func() (*soakRig, error) { return newSoakRig(o.seed, devices, o.size.soakTick) }
	setups, err := o.timeSetups(func() (func(), error) {
		rig, err := build()
		if err != nil {
			return nil, err
		}
		return rig.close, nil
	})
	if err != nil {
		return res.abort(err)
	}
	rig, err := build()
	if err != nil {
		return res.abort(err)
	}
	defer rig.close()
	root := o.rec.begin("soak_fleet", -1, 0)

	probeConns, err := dialAll(rig.px.Addr().String(), 1)
	if err != nil {
		return res.abort(err)
	}
	probe := prepareWire(wireCfg{
		conns:      1,
		payload:    29000,
		rate:       o.size.probeRate,
		warm:       o.size.soakWarm,
		measure:    o.window(),
		seed:       o.seed,
		timeScale:  1,
		rec:        o.rec,
		traceEvery: 1,
		parent:     root,
	}, probeConns)
	probeDone := make(chan struct{})
	go func() {
		probe.drive()
		probe.close()
		close(probeDone)
	}()

	// Warm up until the controllers have found the server's capacity,
	// then measure between two Snapshot refreshes.
	tick := o.size.soakTick
	time.Sleep(o.size.soakWarm - tick/2)
	s0, u0 := nextSnapshot(rig.eng, rig.eng.Snapshot(), tick)
	prev, prevAt := s0, o.rec.now()
	s1, u1 := s0, u0
	for u1.at.Sub(u0.at) < o.window()-tick/2 {
		s1, u1 = nextSnapshot(rig.eng, prev, tick)
		o.rec.add("soak.window", root, 0, prevAt, o.rec.now())
		prev, prevAt = s1, o.rec.now()
	}
	cost := u1.since(u0)
	<-probeDone
	o.rec.end(root)

	res.check("snapshot at window start", checkSnapshot(s0, devices)...)
	res.check("snapshot at window end", checkSnapshot(s1, devices)...)

	// Stop the engine and let the server work off what it had queued
	// (its sessions end once their last answers are written); what
	// releasing the rig then frees is what the trip keeps per virtual
	// device while idle.
	st := rig.srv.Stats()
	rig.eng.Close()
	for deadline := time.Now().Add(drainWait); rig.srv.Conns() > 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	resident := retained(func() {
		rig.close()
		*rig = soakRig{}
	})
	pr := probe.collect()

	secs := cost.wall.Seconds()
	captured := float64(s1.Captured - s0.Captured)
	attempts := float64(s1.OffloadAttempts - s0.OffloadAttempts)
	okd := float64(s1.OffloadOK - s0.OffloadOK)
	rejected := float64(s1.OffloadRejected - s0.OffloadRejected)
	timedOut := float64(s1.OffloadTimedOut - s0.OffloadTimedOut)
	sorted := sortedCopy(pr.latMs)

	e := res.E2E
	e.set("setup_s", median(setups), "s")
	e.set("events_per_s", captured/secs, "1/s")
	e.set("allocs_per_op", ratio(float64(cost.mallocs), attempts), "count")
	e.set("alloc_bytes_per_op", ratio(float64(cost.bytes), attempts), "B")
	e.set("resident_bytes_per_device", float64(resident)/float64(devices), "B")
	e.set("goodput_fps", okd/secs, "1/s")
	e.set("offload_p50_ms", percentile(sorted, 0.50), "ms")
	e.set("offload_p95_ms", percentile(sorted, 0.95), "ms")
	e.set("cpu_s_per_mframe", ratio(cost.cpu.Seconds(), attempts/1e6), "s")
	e.set("settled_ratio", s1.SettledRatio, "ratio")
	res.tail(sorted)

	// loadgen's default payload plus the request's framing.
	frameBytes := float64(frame.DefaultSizeModel().MeanBytes(frame.Res380, 85) + 32)
	l := res.Layer
	l.set("realnet.server.mean_batch", ratio(float64(st.Completed), float64(st.Batches)), "count")
	l.set("realnet.server.shed_share", ratio(float64(st.Rejected), float64(st.Submitted)), "ratio")
	l.set("realnet.server.dropped", float64(st.Dropped), "count")
	l.set("realnet.proxy.mb_per_s", attempts*frameBytes/secs/1e6, "MB/s")
	l.set("loadgen.captured_fps", captured/secs, "1/s")
	l.set("loadgen.attempts_fps", attempts/secs, "1/s")
	l.set("loadgen.shed_share", ratio(rejected, attempts), "ratio")
	l.set("loadgen.timeout_share", ratio(timedOut, attempts), "ratio")
	l.set("loadgen.send_errors", float64(s1.SendErrors), "count")

	res.Attempted = int64(s1.OffloadAttempts) + int64(pr.attempted)
	if n := pr.failed(); n > 0 {
		res.failN(int64(n), "probe frames unanswered, duplicated or undecodable")
	}
	res.Info["devices"] = devices
	res.Info["window_s"] = secs
	res.Info["po_mean"] = s1.PoMean
	res.Info["latency_unit"] = "ms from a probe frame's due instant to its decoded OK answer"
	res.Info["latency_samples"] = len(pr.latMs)
	res.Info["probe_gen_late_ms_max"] = pr.lateMaxMs
	res.Info["probe_shed"] = pr.shed
	res.counts = layerCounts{
		wall:      secs,
		frames:    attempts,
		bigFrames: true,
		ffTicks:   float64(devices) * secs,
	}
	return res
}
