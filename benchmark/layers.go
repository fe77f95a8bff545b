package main

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"time"

	"repro/internal/controller"
	"repro/internal/loadgen"
	"repro/internal/models"
	"repro/internal/netproto"
	"repro/internal/parfan"
	"repro/internal/realnet"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/spans"
	"repro/internal/telemetry"
)

// perLayer is every metric a traced run reports, in three groups.
//
// Unit costs are timed calls into one layer's public functions; the
// same drivers run after every workload, so these do not depend on the
// workload named on the command line. Workload counters come from the
// traced workload's own result structs; a layer the workload does not
// exercise did no work and reads 0. The rest is derived: the budget
// model (count × unit cost ÷ wall), its measured counterpart from the
// CPU profile, and the end-to-end metrics as the traced run saw them.
var perLayer = []metricDef{
	// Unit costs.
	{name: "simtime.heap.ns_per_event.p64", unit: "ns"},
	{name: "simtime.heap.ns_per_event.p50k", unit: "ns"},
	{name: "simtime.wheel.ns_per_event.p64", unit: "ns"},
	{name: "simtime.wheel.ns_per_event.p50k", unit: "ns"},
	{name: "simtime.sharded.ns_per_msg", unit: "ns"},
	{name: "simnet.transferat.ns_per_frame.clean", unit: "ns"},
	{name: "simnet.transferat.ns_per_frame.lossy", unit: "ns"},
	{name: "simnet.sendto.ns_per_frame.clean", unit: "ns"},
	{name: "simnet.sendto.ns_per_frame.lossy", unit: "ns"},
	{name: "server.submit.ns_per_req.complete", unit: "ns"},
	{name: "server.submit.ns_per_req.shed", unit: "ns"},
	{name: "controller.framefeedback.ns_per_tick", unit: "ns"},
	{name: "controller.flat.ns_per_tick", unit: "ns"},
	{name: "scenario.run.wall_us_p50", unit: "us"},
	{name: "parfan.speedup_p2_x", unit: "x", higher: true},
	{name: "netproto.append_request.ns.29k", unit: "ns"},
	{name: "netproto.append_request.ns.64", unit: "ns"},
	{name: "netproto.read_request.ns.29k", unit: "ns"},
	{name: "netproto.read_request.ns.64", unit: "ns"},
	{name: "netproto.read_request.allocs", unit: "count"},
	{name: "netproto.append_response.ns", unit: "ns"},
	{name: "netproto.read_response.ns", unit: "ns"},
	{name: "netproto.read_response.allocs", unit: "count"},
	{name: "realnet.server.rtt_us_p50.idle", unit: "us"},
	{name: "realnet.proxy.added_us_p50", unit: "us"},
	{name: "wire.rtt_minus_exec_p50_us", unit: "us"},
	{name: "wire.gen_late_ms_max", unit: "ms"},
	{name: "loadgen.mux.ns_per_send.29k", unit: "ns"},
	{name: "loadgen.engine.cpu_us_per_device_s", unit: "us"},
	{name: "telemetry.counter_inc.ns", unit: "ns"},
	{name: "telemetry.histogram_observe.ns", unit: "ns"},
	{name: "spans.lifecycle_off.ns", unit: "ns"},
	// Workload counters.
	{name: "latency.p99_ms", unit: "ms"},
	{name: "latency.p999_ms", unit: "ms"},
	{name: "latency.max_ms", unit: "ms"},
	{name: "server.submitted", unit: "count", higher: true},
	{name: "server.completed_share", unit: "ratio", higher: true},
	{name: "server.mean_batch", unit: "count", higher: true},
	{name: "server.busy_share", unit: "ratio", higher: true},
	{name: "scenario.fleet.events", unit: "count", higher: true},
	{name: "scenario.fleet.offload_attempts", unit: "count", higher: true},
	{name: "scenario.run.events_per_run", unit: "count", higher: true},
	{name: "simtime.sharded.speedup_k2_x", unit: "x", higher: true},
	{name: "simtime.sharded.alloc_mb_k2", unit: "MB"},
	{name: "realnet.server.mean_batch", unit: "count", higher: true},
	{name: "realnet.server.shed_share", unit: "ratio"},
	{name: "realnet.server.dropped", unit: "count"},
	{name: "realnet.proxy.mb_per_s", unit: "MB/s", higher: true},
	{name: "loadgen.captured_fps", unit: "1/s", higher: true},
	{name: "loadgen.attempts_fps", unit: "1/s", higher: true},
	{name: "loadgen.shed_share", unit: "ratio"},
	{name: "loadgen.timeout_share", unit: "ratio"},
	{name: "loadgen.send_errors", unit: "count"},
	{name: "trace.spans", unit: "count", higher: true},
	// Budget model and its measured counterpart.
	{name: "budget.simtime_share", unit: "ratio"},
	{name: "budget.simnet_share", unit: "ratio"},
	{name: "budget.server_share", unit: "ratio"},
	{name: "budget.controller_share", unit: "ratio"},
	{name: "budget.netproto_share", unit: "ratio"},
	{name: "budget.unattributed_share", unit: "ratio"},
	{name: "cpu_share.simtime", unit: "ratio"},
	{name: "cpu_share.simnet", unit: "ratio"},
	{name: "cpu_share.scenario", unit: "ratio"},
	{name: "cpu_share.device", unit: "ratio"},
	{name: "cpu_share.server", unit: "ratio"},
	{name: "cpu_share.controller", unit: "ratio"},
	{name: "cpu_share.rng", unit: "ratio"},
	{name: "cpu_share.frame", unit: "ratio"},
	{name: "cpu_share.netproto", unit: "ratio"},
	{name: "cpu_share.realnet", unit: "ratio"},
	{name: "cpu_share.loadgen", unit: "ratio"},
	{name: "cpu_share.runtime", unit: "ratio"},
	{name: "cpu_share.syscall", unit: "ratio"},
	{name: "cpu_share.other", unit: "ratio"},
	// The end-to-end metrics with tracing on; minus the untraced run's
	// they are the tracing overhead.
	{name: "traced.setup_s", unit: "s"},
	{name: "traced.events_per_s", unit: "1/s", higher: true},
	{name: "traced.allocs_per_op", unit: "count"},
	{name: "traced.alloc_bytes_per_op", unit: "B"},
	{name: "traced.resident_bytes_per_device", unit: "B"},
	{name: "traced.goodput_fps", unit: "1/s", higher: true},
	{name: "traced.offload_p50_ms", unit: "ms"},
	{name: "traced.offload_p95_ms", unit: "ms"},
	{name: "traced.cpu_s_per_mframe", unit: "s"},
	{name: "traced.settled_ratio", unit: "ratio", higher: true},
}

// profiledPackages are the cpu_share.* buckets; anything else is
// "other".
var profiledPackages = []string{"simtime", "simnet", "scenario", "device", "server", "controller",
	"rng", "frame", "netproto", "realnet", "loadgen", "runtime", "syscall"}

// layerCounts is what a workload hands the budget model: how often it
// called each layer, and the wall time that work has to fit in.
type layerCounts struct {
	wall   float64 // seconds
	events float64 // scheduler events
	wheel  bool    // fleet-sized pending set on the wheel, else a small plain heap

	shardMsgs   float64 // Sharded.Post + barrier merge
	transfersAt float64 // Link.TransferAt
	sendTos     float64 // Link.SendTo
	lossyShare  float64 // share of transfers on a lossy phase
	submitsDone float64 // server.Submit that completed
	submitsShed float64 // server.Submit that was shed
	flatTicks   float64 // controller.Flat.Next
	ffTicks     float64 // controller.FrameFeedback.Next

	frames    float64 // wire frames sent (and answered)
	bigFrames bool    // 29 KB payloads, else 64 B
}

// budget predicts each layer's share of the workload's wall time as
// count × unit cost ÷ wall. What the model leaves over is
// unattributed: the scenario glue, the runtime, the kernel.
func (c layerCounts) budget(unit metricSet) metricSet {
	out := metricSet{}
	if c.wall <= 0 {
		return out
	}
	ns := func(name string) float64 { return unit[name].Value }
	mix := func(clean, lossy string) float64 {
		return (1-c.lossyShare)*ns(clean) + c.lossyShare*ns(lossy)
	}
	perEvent := ns("simtime.heap.ns_per_event.p64")
	if c.wheel {
		perEvent = ns("simtime.wheel.ns_per_event.p50k")
	}
	simtimeNs := c.events*perEvent + c.shardMsgs*ns("simtime.sharded.ns_per_msg")
	simnetNs := c.transfersAt*mix("simnet.transferat.ns_per_frame.clean", "simnet.transferat.ns_per_frame.lossy") +
		c.sendTos*mix("simnet.sendto.ns_per_frame.clean", "simnet.sendto.ns_per_frame.lossy")
	serverNs := c.submitsDone*ns("server.submit.ns_per_req.complete") + c.submitsShed*ns("server.submit.ns_per_req.shed")
	ctlNs := c.flatTicks*ns("controller.flat.ns_per_tick") + c.ffTicks*ns("controller.framefeedback.ns_per_tick")
	size := ".64"
	if c.bigFrames {
		size = ".29k"
	}
	protoNs := c.frames * (ns("netproto.append_request.ns"+size) + ns("netproto.read_request.ns"+size) +
		ns("netproto.append_response.ns") + ns("netproto.read_response.ns"))

	wallNs := c.wall * 1e9
	var sum float64
	for name, v := range map[string]float64{
		"simtime": simtimeNs, "simnet": simnetNs, "server": serverNs, "controller": ctlNs, "netproto": protoNs,
	} {
		out.set("budget."+name+"_share", v/wallNs, "ratio")
		sum += v / wallNs
	}
	out.set("budget.unattributed_share", 1-sum, "ratio")
	return out
}

// nsPerOp times batches of n calls for about budget and returns the
// median batch's nanoseconds per call.
func nsPerOp(budget time.Duration, n int, batch func(n int)) float64 {
	batch(n) // warm caches and pools
	var per []float64
	for start := time.Now(); len(per) < 5 || time.Since(start) < budget; {
		t := time.Now()
		batch(n)
		per = append(per, float64(time.Since(t))/float64(n))
	}
	return median(per)
}

// allocsPerOp counts heap allocations per call over n calls.
func allocsPerOp(n int, f func()) float64 {
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

type nopCallback struct{}

func (nopCallback) OnSchedEvent(uint64) {}

type nopSink struct{}

func (nopSink) OnLinkDelivered(uint64) {}
func (nopSink) OnLinkDropped(uint64)   {}

type nopCompleter struct{}

func (nopCompleter) CompleteRequest(*server.Request, server.Result) {}

// layerDrivers times each layer's public API in isolation. Every
// driver is a root span, so the trace shows where the traced run's own
// time went after the workload ended.
func layerDrivers(o runOpts, rec *recorder) metricSet {
	out := metricSet{}
	d := o.size.driverTime
	driver := func(name string, f func()) {
		sp := rec.begin("layer."+name, -1, 0)
		f()
		rec.end(sp)
	}

	driver("simtime", func() {
		churn := func(s *simtime.Scheduler, pending int) float64 {
			r := rng.New(o.seed)
			var cb nopCallback
			for i := 0; i < pending; i++ {
				s.AfterCall(time.Duration(r.Intn(250_000))*time.Microsecond, cb, 0)
			}
			return nsPerOp(d, 20000, func(n int) {
				for i := 0; i < n; i++ {
					s.AfterCall(time.Duration(r.Intn(250_000))*time.Microsecond, cb, 0)
					s.Step()
				}
			})
		}
		out.set("simtime.heap.ns_per_event.p64", churn(simtime.NewScheduler(), 64), "ns")
		out.set("simtime.heap.ns_per_event.p50k", churn(simtime.NewScheduler(), 50000), "ns")
		out.set("simtime.wheel.ns_per_event.p64", churn(simtime.NewSchedulerWheel(), 64), "ns")
		out.set("simtime.wheel.ns_per_event.p50k", churn(simtime.NewSchedulerWheel(), 50000), "ns")

		// K=2 on one goroutine: Post to both shards, merge at the
		// barrier, fire what was delivered.
		eng := simtime.NewSharded(2, simtime.Time(time.Millisecond), 1)
		defer eng.Close()
		var cb nopCallback
		var seq uint64
		now := simtime.Time(0)
		const perEpoch = 256
		out.set("simtime.sharded.ns_per_msg", nsPerOp(d, 64, func(n int) {
			for e := 0; e < n; e++ {
				for j := 0; j < perEpoch; j++ {
					seq++
					at := now + simtime.Time(time.Millisecond) + simtime.Time(j)*simtime.Time(time.Microsecond)
					eng.Post(0, j%2, at, uint64(j%2), seq, cb, 0)
				}
				now += simtime.Time(time.Millisecond)
				eng.AdvanceTo(now)
			}
		})/perEpoch, "ns")
	})

	clean := simnet.Conditions{BandwidthBps: simnet.Mbps(10), PropDelay: 5 * time.Millisecond}
	lossy := simnet.Conditions{BandwidthBps: simnet.Mbps(4), Loss: 0.07, PropDelay: 5 * time.Millisecond}
	driver("simnet", func() {
		transferAt := func(c simnet.Conditions) float64 {
			var l simnet.Link
			r := rng.New(o.seed)
			l.Init(r, c)
			now := simtime.Time(0)
			return nsPerOp(d, 5000, func(n int) {
				for i := 0; i < n; i++ {
					// Each frame starts when the last one's outcome is
					// known, so the link never builds a backlog.
					now, _ = l.TransferAt(now, 29000)
				}
			})
		}
		sendTo := func(c simnet.Conditions) float64 {
			s := simtime.NewScheduler()
			l := simnet.NewLink(s, rng.New(o.seed), c)
			var sink nopSink
			return nsPerOp(d, 5000, func(n int) {
				for i := 0; i < n; i++ {
					l.SendTo(29000, sink, 0)
					s.Run()
				}
			})
		}
		out.set("simnet.transferat.ns_per_frame.clean", transferAt(clean), "ns")
		out.set("simnet.transferat.ns_per_frame.lossy", transferAt(lossy), "ns")
		out.set("simnet.sendto.ns_per_frame.clean", sendTo(clean), "ns")
		out.set("simnet.sendto.ns_per_frame.lossy", sendTo(lossy), "ns")
	})

	driver("server", func() {
		// perBurst requests, then the batcher runs dry: 15 fill one
		// batch and complete, anything beyond is shed at formation.
		submit := func(perBurst int) float64 {
			s := simtime.NewScheduler()
			srv := server.New(s, rng.New(o.seed), server.Config{GPU: models.TeslaV100()})
			var done nopCompleter
			return nsPerOp(d, 64, func(n int) {
				for b := 0; b < n; b++ {
					for i := 0; i < perBurst; i++ {
						req := srv.AcquireRequest()
						req.Model = wireModel
						req.Completer = done
						srv.Submit(req)
					}
					s.Run()
				}
			}) / float64(perBurst)
		}
		out.set("server.submit.ns_per_req.complete", submit(server.DefaultMaxBatch), "ns")
		out.set("server.submit.ns_per_req.shed", submit(1024), "ns")
	})

	driver("controller", func() {
		tick := func(next func(controller.Measurement) float64) float64 {
			m := controller.Measurement{FS: 30, Po: 15}
			var i int
			return nsPerOp(d, 20000, func(n int) {
				for end := i + n; i < end; i++ {
					m.Now = simtime.Time(i) * simtime.Time(time.Second)
					m.T = float64(i % 5)
					m.Po = next(m)
				}
			})
		}
		out.set("controller.framefeedback.ns_per_tick", tick(controller.NewFrameFeedback(controller.Config{}).Next), "ns")
		var flat controller.Flat
		flat.Init(controller.Config{})
		out.set("controller.flat.ns_per_tick", tick(flat.Next), "ns")
	})

	driver("scenario", func() {
		p := runSuitePass(o.seed, nil, -1)
		out.set("scenario.run.wall_us_p50", median(p.wallUs), "us")
		// One pass through parfan.Map at one worker and at two.
		cfgs := append(suiteConfigs(o.seed), suiteConfigs(o.seed+1)...)
		fan := func(workers int) float64 {
			var walls []float64
			for i := 0; i < 3; i++ {
				t := time.Now()
				parfan.Map(workers, cfgs, func(_ int, c scenario.Config) uint64 { return scenario.Run(c).EventsFired })
				walls = append(walls, time.Since(t).Seconds())
			}
			return median(walls)
		}
		out.set("parfan.speedup_p2_x", ratio(fan(1), fan(2)), "x")
	})

	driver("netproto", func() {
		for _, sz := range []struct {
			tag   string
			bytes int
		}{{"29k", 29000}, {"64", 64}} {
			req := &netproto.Request{Stream: 1, FrameID: 7, Model: wireModel, Payload: make([]byte, sz.bytes)}
			var buf []byte
			out.set("netproto.append_request.ns."+sz.tag, nsPerOp(d, 2000, func(n int) {
				for i := 0; i < n; i++ {
					buf, _ = netproto.AppendRequest(buf[:0], req)
				}
			}), "ns")
			rd := bytes.NewReader(buf)
			read := func() {
				rd.Reset(buf)
				if _, err := netproto.ReadRequest(rd); err != nil {
					panic(err)
				}
			}
			out.set("netproto.read_request.ns."+sz.tag, nsPerOp(d, 2000, func(n int) {
				for i := 0; i < n; i++ {
					read()
				}
			}), "ns")
			out.set("netproto.read_request.allocs", allocsPerOp(1000, read), "count")
		}
		res := &netproto.Response{FrameID: 7, Label: 7, BatchSize: 3}
		var buf []byte
		out.set("netproto.append_response.ns", nsPerOp(d, 20000, func(n int) {
			for i := 0; i < n; i++ {
				buf = netproto.AppendResponse(buf[:0], res)
			}
		}), "ns")
		rd := bytes.NewReader(buf)
		read := func() {
			rd.Reset(buf)
			if _, err := netproto.ReadResponse(rd); err != nil {
				panic(err)
			}
		}
		out.set("netproto.read_response.ns", nsPerOp(d, 20000, func(n int) {
			for i := 0; i < n; i++ {
				read()
			}
		}), "ns")
		out.set("netproto.read_response.allocs", allocsPerOp(1000, read), "count")
	})

	driver("realnet", func() {
		// One connection, one frame outstanding: the serial read ->
		// batcher -> timer -> reply -> write path, nothing to overlap.
		idle := func(viaProxy bool) float64 {
			rig, err := newWireRig(1e-4, 0)
			if err != nil {
				return 0
			}
			defer rig.close()
			addr := rig.srv.Addr().String()
			if viaProxy {
				px, err := realnet.NewProxy(realnet.ProxyConfig{Addr: "127.0.0.1:0", Target: addr, Seed: o.seed})
				if err != nil {
					return 0
				}
				defer px.Close()
				addr = px.Addr().String()
			}
			conns, err := dialAll(addr, 1)
			if err != nil {
				return 0
			}
			g := prepareWire(wireCfg{conns: 1, payload: 64, window: 1, warm: d / 3, measure: 2 * d, timeScale: 1e-4}, conns)
			g.drive()
			g.close()
			return median(g.collect().latMs) * 1e3
		}
		direct := idle(false)
		out.set("realnet.server.rtt_us_p50.idle", direct, "us")
		out.set("realnet.proxy.added_us_p50", idle(true)-direct, "us")

		// A short paced run for the open loop's own figures.
		rig, err := newWireRig(0.02, 2)
		if err != nil {
			return
		}
		defer rig.close()
		g := prepareWire(wireCfg{conns: 2, payload: 29000, rate: o.size.pacedRate, warm: d, measure: 4 * d,
			seed: o.seed, timeScale: 0.02}, rig.conns)
		g.drive()
		g.close()
		rig.conns = nil
		w := g.collect()
		out.set("wire.rtt_minus_exec_p50_us", median(w.netUs), "us")
		out.set("wire.gen_late_ms_max", w.lateMaxMs, "ms")
	})

	driver("loadgen", func() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return
		}
		sinkDone := make(chan struct{})
		go func() {
			defer close(sinkDone)
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					io.Copy(io.Discard, c)
					c.Close()
				}()
			}
		}()
		defer func() {
			ln.Close()
			<-sinkDone
		}()

		mux, err := loadgen.NewMux(loadgen.MuxConfig{Addr: ln.Addr().String(), Conns: 1,
			Handler: func(int, *netproto.Response) {}})
		if err != nil {
			return
		}
		for deadline := time.Now().Add(2 * time.Second); mux.Up() < 1 && time.Now().Before(deadline); {
			time.Sleep(200 * time.Microsecond)
		}
		req := &netproto.Request{Model: wireModel, Payload: make([]byte, 29000)}
		out.set("loadgen.mux.ns_per_send.29k", nsPerOp(d, 500, func(n int) {
			for i := 0; i < n; i++ {
				req.FrameID = loadgen.PackFrameID(0, uint32(i))
				if err := mux.Send(0, req); err != nil {
					return
				}
			}
		}), "ns")
		mux.Close()

		// Pure stepping: a policy that never offloads sends nothing.
		devices := o.size.soakDevices
		c0 := cpuTime()
		t0 := time.Now()
		eng, err := loadgen.New(loadgen.Config{Addr: ln.Addr().String(), Devices: devices, Conns: 1, Workers: 2,
			Seed: o.seed, NewPolicy: func(int) controller.Policy { return scenario.LocalOnlyFactory()() }})
		if err != nil {
			return
		}
		time.Sleep(4 * d)
		eng.Close()
		cpu := cpuTime() - c0
		out.set("loadgen.engine.cpu_us_per_device_s",
			float64(cpu)/1e3/(float64(devices)*time.Since(t0).Seconds()), "us")
	})

	driver("telemetry", func() {
		reg := telemetry.NewRegistry()
		c := reg.Counter("bench_counter_total", "benchmark driver")
		h := reg.Histogram("bench_seconds", "benchmark driver", telemetry.DefBuckets)
		out.set("telemetry.counter_inc.ns", nsPerOp(d, 100000, func(n int) {
			for i := 0; i < n; i++ {
				c.Inc()
			}
		}), "ns")
		out.set("telemetry.histogram_observe.ns", nsPerOp(d, 100000, func(n int) {
			for i := 0; i < n; i++ {
				h.Observe(float64(i%300) / 1000)
			}
		}), "ns")
		// The whole per-frame call sequence against a nil tracer:
		// what every workload pays for tracing it did not ask for.
		var tr *spans.Tracer
		at := func(ms int) simtime.Time { return simtime.Time(ms) * simtime.Time(time.Millisecond) }
		out.set("spans.lifecycle_off.ns", nsPerOp(d, 100000, func(n int) {
			for i := 0; i < n; i++ {
				s := tr.Start(1, uint64(i), 1, 0)
				s.Point(spans.StageCapture, 0, 0)
				s.Point(spans.StageDecision, 0, spans.VerdictOffload)
				s.Begin(spans.StageUplink, 0, 0)
				s.End(spans.StageUplink, at(20))
				s.Begin(spans.StageServerQueue, at(20), 0)
				s.End(spans.StageServerQueue, at(40))
				s.Begin(spans.StageBatch, at(40), 4)
				s.End(spans.StageBatch, at(90))
				s.Begin(spans.StageDownlink, at(90), 0)
				s.End(spans.StageDownlink, at(100))
				s.Resolve(at(100), spans.VerdictOK)
				tr.Finish(s)
			}
		}), "ns")
	})
	return out
}
