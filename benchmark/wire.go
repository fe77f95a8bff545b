package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/models"
	"repro/internal/netproto"
	"repro/internal/realnet"
	"repro/internal/rng"
)

const (
	offloadDeadline = 250 * time.Millisecond
	wireModel       = models.MobileNetV3Small
	// drainWait bounds how long the generator waits, after its last
	// send, for frames still unanswered.
	drainWait = 3 * time.Second
)

// wireCfg describes one run of the benchmark's own load generator.
// rate > 0 selects the open loop (frames leave on a fixed schedule,
// whatever the server does); otherwise window frames per connection
// are kept outstanding (closed loop).
type wireCfg struct {
	addr      string
	conns     int
	payload   int
	rate      float64 // frames/s over all connections (open loop)
	window    int     // outstanding per connection (closed loop)
	warm      time.Duration
	measure   time.Duration
	seed      uint64
	timeScale float64 // the server's, to subtract modelled execution
	rec       *recorder
	// traceEvery records spans for every Nth frame (0 = none).
	traceEvery int
	parent     int32
}

// wireOut is what the generator measured. Counters without a comment
// cover the measured window only.
type wireOut struct {
	sent, answered, ok, onTime, shed uint64
	latMs                            []float64 // frames answered OK
	netUs                            []float64 // the same minus the modelled execution, in µs
	lateMaxMs                        float64   // open loop: worst send lateness
	cost                             delta
	// Whole run, warm-up included.
	attempted, unanswered, duplicate, unknown, badLabel, ioErrs uint64
}

func (w wireOut) failed() uint64 {
	return w.unanswered + w.duplicate + w.unknown + w.badLabel + w.ioErrs
}

// frameSlot is the generator's record of one frame in flight. The
// sender fills it before the bytes leave; the receiver reads it when
// the answer arrives (atomics, because a socket is not an ordering the
// race detector knows).
type frameSlot struct {
	id            atomic.Uint64 // FrameID+1 occupying the slot; 0 = free
	ref           atomic.Int64  // latency origin: due instant (open) or send instant (closed)
	enc, wr0, wr1 atomic.Int64  // traced frames: encode start, write start, write end
	answers       atomic.Uint32
}

type wireConn struct {
	idx   int
	conn  net.Conn
	slots []frameSlot
	// Receiver-owned until the run ends.
	out wireOut
	// Sender-owned until the run ends.
	sent, sentAll uint64
	lateMax       int64
	sendErr       error
}

// openSchedule is the fixed send schedule of one open-loop connection:
// frame k is due at phase + k·period after the generator's epoch,
// whatever happened to frame k-1.
type openSchedule struct {
	phase, period time.Duration
	frames        int
}

func (s openSchedule) due(k int) time.Duration { return s.phase + time.Duration(k)*s.period }

// newOpenSchedule spreads rate frames/s over conns connections. Each
// connection's phase comes from the seed, so two runs on one seed
// offer the same arrival pattern.
func newOpenSchedule(cfg wireCfg, conn int) openSchedule {
	period := time.Duration(float64(time.Second) * float64(cfg.conns) / cfg.rate)
	phase := time.Duration(float64(period) * rng.New(cfg.seed).Split(uint64(conn)).Float64())
	total := cfg.warm + cfg.measure
	n := 0
	if total > phase {
		n = int((total-phase)/period) + 1
	}
	if phase+time.Duration(n-1)*period >= total {
		n--
	}
	return openSchedule{phase: phase, period: period, frames: n}
}

// dialAll opens the generator's connections.
func dialAll(addr string, n int) ([]net.Conn, error) {
	conns := make([]net.Conn, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			for _, o := range conns {
				o.Close()
			}
			return nil, fmt.Errorf("dial generator connection %d: %w", i, err)
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// wireGen is a prepared generator: connections dialled and the sample
// arrays allocated, so that the measured window does not pay for
// growing them.
type wireGen struct {
	cfg   wireCfg
	conns []*wireConn
	gpu   *models.GPUProfile

	clockOff  int64 // generator clock minus recorder clock
	cost      delta
	receivers sync.WaitGroup
}

func prepareWire(cfg wireCfg, conns []net.Conn) *wireGen {
	g := &wireGen{cfg: cfg, gpu: models.TeslaV100()}
	for i, c := range conns {
		wc := &wireConn{idx: i, conn: c}
		var expect int
		if cfg.rate > 0 {
			wc.slots = make([]frameSlot, newOpenSchedule(cfg, i).frames)
			expect = len(wc.slots)
		} else {
			// A ring well above the window: a slot is free again long
			// before its turn comes round.
			wc.slots = make([]frameSlot, 64)
			expect = int(cfg.measure.Seconds()*100e3) + 1024
		}
		wc.out.latMs = make([]float64, 0, expect)
		wc.out.netUs = make([]float64, 0, expect)
		g.conns = append(g.conns, wc)
	}
	return g
}

// drive sends the load and blocks until every frame is answered or
// drainWait has passed, leaving the connections open and idle. close
// ends them; collect then adds up what the connections saw.
func (g *wireGen) drive() {
	cfg := g.cfg
	epoch := time.Now()
	if cfg.rec.on() {
		g.clockOff = int64(epoch.Sub(cfg.rec.epoch))
	}
	now := func() int64 { return int64(time.Since(epoch)) }
	mStart, mEnd := int64(cfg.warm), int64(cfg.warm+cfg.measure)

	stop := make(chan struct{})
	var senders sync.WaitGroup
	for _, wc := range g.conns {
		wc := wc
		tokens := make(chan struct{}, cfg.window+1)
		for i := 0; i < cfg.window; i++ {
			tokens <- struct{}{}
		}
		senders.Add(1)
		g.receivers.Add(1)
		go func() {
			defer senders.Done()
			g.send(wc, now, mStart, mEnd, tokens, stop)
		}()
		go func() {
			defer g.receivers.Done()
			g.receive(wc, now, mStart, mEnd, tokens)
		}()
	}

	// The cost window is read on this goroutine at the two boundaries.
	time.Sleep(cfg.warm - time.Duration(now()))
	u0 := readUsage()
	time.Sleep(cfg.warm + cfg.measure - time.Duration(now()))
	g.cost = readUsage().since(u0)
	close(stop)
	senders.Wait()

	for deadline := time.Now().Add(drainWait); g.outstanding() > 0 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
}

func (g *wireGen) close() {
	for _, wc := range g.conns {
		wc.conn.Close()
	}
	g.receivers.Wait()
}

func (g *wireGen) collect() wireOut {
	// Exactly once: a frame whose slot was never released got no
	// answer; a second answer was counted as a duplicate on arrival.
	out := wireOut{cost: g.cost, unanswered: g.outstanding()}
	for _, wc := range g.conns {
		o := &wc.out
		out.attempted += wc.sentAll
		out.sent += wc.sent
		out.answered += o.answered
		out.ok += o.ok
		out.onTime += o.onTime
		out.shed += o.shed
		out.latMs = append(out.latMs, o.latMs...)
		out.netUs = append(out.netUs, o.netUs...)
		out.duplicate += o.duplicate
		out.unknown += o.unknown
		out.badLabel += o.badLabel
		out.ioErrs += o.ioErrs
		if wc.sendErr != nil {
			out.ioErrs++
		}
		if l := ms(time.Duration(wc.lateMax)); l > out.lateMaxMs {
			out.lateMaxMs = l
		}
	}
	return out
}

// outstanding counts frames sent and not yet answered: a slot holds
// its frame's id from the send until the answer releases it.
func (g *wireGen) outstanding() uint64 {
	var n uint64
	for _, wc := range g.conns {
		for i := range wc.slots {
			if wc.slots[i].id.Load() != 0 {
				n++
			}
		}
	}
	return n
}

func (g *wireGen) traced(seq uint64) bool {
	return g.cfg.rec.on() && g.cfg.traceEvery > 0 && seq%uint64(g.cfg.traceEvery) == 0
}

func (g *wireGen) send(wc *wireConn, now func() int64, mStart, mEnd int64, tokens, stop chan struct{}) {
	cfg := g.cfg
	req := netproto.Request{
		Stream:  uint32(wc.idx),
		Model:   wireModel,
		Payload: make([]byte, cfg.payload),
	}
	var buf []byte
	sched := newOpenSchedule(cfg, wc.idx)
	for seq := uint64(0); ; seq++ {
		var slot *frameSlot
		var ref int64
		if cfg.rate > 0 {
			if int(seq) >= sched.frames {
				return
			}
			ref = int64(sched.due(int(seq)))
			if d := ref - now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			slot = &wc.slots[seq]
		} else {
			select {
			case <-tokens:
			case <-stop:
				return
			}
			slot = &wc.slots[seq%uint64(len(wc.slots))]
		}
		t0 := now()
		if cfg.rate > 0 {
			if late := t0 - ref; late > wc.lateMax && ref >= mStart {
				wc.lateMax = late
			}
		} else {
			ref = t0
		}
		req.FrameID = uint64(wc.idx)<<32 | seq
		req.CapturedUnixNano = t0
		slot.ref.Store(ref)
		slot.id.Store(req.FrameID + 1)

		var err error
		buf, err = netproto.AppendRequest(buf[:0], &req)
		if err != nil {
			wc.sendErr = err
			return
		}
		t1 := int64(0)
		if g.traced(seq) {
			t1 = now()
		}
		if _, err = wc.conn.Write(buf); err != nil {
			wc.sendErr = err
			return
		}
		if t1 != 0 {
			slot.enc.Store(t0)
			slot.wr0.Store(t1)
			slot.wr1.Store(now())
		}
		wc.sentAll++
		if ref >= mStart && ref < mEnd {
			wc.sent++
		}
	}
}

func (g *wireGen) receive(wc *wireConn, now func() int64, mStart, mEnd int64, tokens chan struct{}) {
	cfg := g.cfg
	o := &wc.out
	br := bufio.NewReaderSize(wc.conn, 4096)
	curve := g.gpu.Curve(wireModel)
	for {
		// Peek blocks until the answer's first byte is here, so the
		// wait for the server and the decode are separate intervals.
		if _, err := br.Peek(1); err != nil {
			return
		}
		tAvail := int64(0)
		if cfg.rec.on() {
			tAvail = now()
		}
		res, err := netproto.ReadResponse(br)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				o.ioErrs++
			}
			return
		}
		tDone := now()

		seq := res.FrameID & 0xffffffff
		if res.FrameID>>32 != uint64(wc.idx) || (cfg.rate > 0 && seq >= uint64(len(wc.slots))) {
			o.unknown++
			continue
		}
		slot := &wc.slots[seq%uint64(len(wc.slots))]
		if slot.id.Load() != res.FrameID+1 {
			if cfg.rate > 0 && slot.answers.Load() > 0 {
				o.duplicate++
			} else {
				o.unknown++
			}
			continue
		}
		ref := slot.ref.Load()
		if !res.Rejected && res.Label != int32(res.FrameID%1000) {
			o.badLabel++
		}
		if g.traced(seq) {
			g.frameSpans(slot, res.FrameID, ref, tAvail, tDone)
		}
		slot.answers.Add(1)
		slot.id.Store(0)
		if cfg.rate == 0 {
			tokens <- struct{}{}
		}

		if ref < mStart || ref >= mEnd {
			continue
		}
		o.answered++
		if res.Rejected {
			o.shed++
			continue
		}
		lat := time.Duration(tDone - ref)
		o.latMs = append(o.latMs, ms(lat))
		o.ok++
		if lat <= offloadDeadline {
			o.onTime++
		}
		exec := float64(curve.Latency(int(res.BatchSize))) * cfg.timeScale
		o.netUs = append(o.netUs, (float64(lat)-exec)/1e3)
	}
}

// frameSpans records one frame's trip: a frame span from encode start
// to decode end, and under it encode, write, await and decode, all
// sharing the FrameID.
func (g *wireGen) frameSpans(slot *frameSlot, id uint64, ref, tAvail, tDone int64) {
	enc, wr0, wr1 := slot.enc.Load(), slot.wr0.Load(), slot.wr1.Load()
	slot.wr1.Store(0)
	if wr1 == 0 || enc < ref {
		// The answer overtook the sender's stamps (none yet, or still
		// the slot's previous frame's); skip this frame.
		return
	}
	rec := g.cfg.rec
	off := g.clockOff
	f := rec.add("frame", g.cfg.parent, id, enc+off, tDone+off)
	rec.add("encode", f, id, enc+off, wr0+off)
	rec.add("write", f, id, wr0+off, wr1+off)
	rec.add("await", f, id, wr1+off, tAvail+off)
	rec.add("decode", f, id, tAvail+off, tDone+off)
}

// wireRig is a server with the generator's connections dialled.
type wireRig struct {
	srv   *realnet.Server
	conns []net.Conn
}

func (r *wireRig) close() {
	for _, c := range r.conns {
		c.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
}

func newWireRig(timeScale float64, conns int) (*wireRig, error) {
	srv, err := realnet.NewServer(realnet.ServerConfig{
		Addr:      "127.0.0.1:0",
		MaxBatch:  15,
		TimeScale: timeScale,
	})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	cs, err := dialAll(srv.Addr().String(), conns)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &wireRig{srv: srv, conns: cs}, nil
}

// wireWorkload is the body shared by wire_paced and wire_closed: set
// up several times (the median is setup_s), run the generator on the
// last rig, measure what stays resident once it is idle.
func wireWorkload(name string, o runOpts, timeScale float64, cfg wireCfg) *result {
	res := newResult(name)
	build := func() (*wireRig, error) { return newWireRig(timeScale, cfg.conns) }
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

	cfg.addr = rig.srv.Addr().String()
	cfg.seed = o.seed
	cfg.timeScale = timeScale
	cfg.rec = o.rec
	cfg.measure = o.window()
	root := o.rec.begin(name, -1, 0)
	cfg.parent = root
	gen := prepareWire(cfg, rig.conns)
	gen.drive()
	o.rec.end(root)

	// Every frame is answered and the connections are still open and
	// idle: what closing them and the server frees is what the path
	// kept for them. The generator's sample arrays outlive this.
	resident := retained(func() {
		gen.close()
		rig.conns = nil
		rig.close()
	})
	out := gen.collect()
	wireMetrics(res, out, setups, float64(resident)/float64(cfg.conns))

	st := rig.srv.Stats()
	l := res.Layer
	l.set("realnet.server.mean_batch", ratio(float64(st.Completed), float64(st.Batches)), "count")
	l.set("realnet.server.shed_share", ratio(float64(st.Rejected), float64(st.Submitted)), "ratio")
	l.set("realnet.server.dropped", float64(st.Dropped), "count")
	res.Info["gen_late_ms_max"] = out.lateMaxMs
	res.Info["rtt_minus_exec_p50_us"] = median(out.netUs)
	res.Info["payload_bytes"] = cfg.payload
	res.counts = layerCounts{
		wall:      out.cost.wall.Seconds(),
		frames:    float64(out.sent),
		bigFrames: cfg.payload > 1024,
	}
	return res
}

// wireMetrics turns a generator run into the ten end-to-end metrics.
func wireMetrics(res *result, out wireOut, setups []float64, residentPerDevice float64) {
	secs := out.cost.wall.Seconds()
	sorted := sortedCopy(out.latMs)
	e := res.E2E
	e.set("setup_s", median(setups), "s")
	e.set("events_per_s", float64(out.answered)/secs, "1/s")
	e.set("allocs_per_op", ratio(float64(out.cost.mallocs), float64(out.sent)), "count")
	e.set("alloc_bytes_per_op", ratio(float64(out.cost.bytes), float64(out.sent)), "B")
	e.set("resident_bytes_per_device", residentPerDevice, "B")
	e.set("goodput_fps", float64(out.onTime)/secs, "1/s")
	e.set("offload_p50_ms", percentile(sorted, 0.50), "ms")
	e.set("offload_p95_ms", percentile(sorted, 0.95), "ms")
	e.set("cpu_s_per_mframe", ratio(out.cost.cpu.Seconds(), float64(out.sent)/1e6), "s")
	e.set("settled_ratio", ratio(float64(out.onTime), float64(out.sent)), "ratio")
	res.tail(sorted)

	res.Attempted = int64(out.attempted)
	for _, c := range []struct {
		n    uint64
		what string
	}{
		{out.unanswered, "frames never answered"},
		{out.duplicate, "frames answered twice"},
		{out.unknown, "answers to no frame sent"},
		{out.badLabel, "answers with the wrong label"},
		{out.ioErrs, "IO or decode errors"},
	} {
		if c.n > 0 {
			res.failN(int64(c.n), c.what)
		}
	}
	res.Info["sent"] = out.sent
	res.Info["answered"] = out.answered
	res.Info["shed"] = out.shed
	res.Info["latency_unit"] = "ms from the frame's due (open loop) or send (closed loop) instant to its decoded OK answer"
	res.Info["latency_samples"] = len(out.latMs)
}

// wirePaced is the byte-dominated open-loop workload.
func wirePaced(o runOpts) *result {
	return wireWorkload("wire_paced", o, 0.02, wireCfg{
		conns:      2,
		payload:    29000,
		rate:       o.size.pacedRate,
		warm:       o.size.wireWarm,
		traceEvery: 1,
	})
}

// wireClosed is the message-dominated closed-loop workload.
func wireClosed(o runOpts) *result {
	return wireWorkload("wire_closed", o, 1e-4, wireCfg{
		conns:      2,
		payload:    64,
		window:     7,
		warm:       o.size.wireWarm,
		traceEvery: 32,
	})
}
