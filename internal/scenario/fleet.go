package scenario

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/controller"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/models"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// MaxFleetDevices bounds a fleet run's population: device and record
// indices are packed into 20-bit fields of the cross-shard message
// token (gen<<40 | rec<<20 | dev).
const MaxFleetDevices = 1 << 20

// FleetConfig parameterizes a fleet-scale run: the same closed loop as
// Config, but N independent FrameFeedback devices sharing one edge
// server, with flat per-device state and a sharded scheduler so N can
// reach 100k–1M. See DESIGN.md §13 for the execution model and its
// semantic deltas from the single-device runner.
type FleetConfig struct {
	// Seed is the experiment seed; 0 means DefaultSeed.
	Seed uint64
	// Devices is the fleet size. Required, at most MaxFleetDevices.
	Devices int
	// Shards partitions devices over Shards independent event heaps
	// (device i lives on shard i % Shards). Default 1. The output is
	// byte-identical for every shard count.
	Shards int
	// Workers caps the goroutines executing shards; default Shards.
	// The output is independent of the worker count.
	Workers int
	// FS is the per-device source frame rate; default 30.
	FS float64
	// Duration is the measured portion of the run; default 10 s.
	Duration time.Duration
	// Drain extends the run past Duration so in-flight offloads
	// resolve; default 1 s.
	Drain time.Duration
	// Tick is the control/measurement period; default 1 s.
	Tick time.Duration
	// Network is the uplink/downlink schedule applied to every
	// device path; default DefaultFleetSchedule (a 10 s compression
	// of the paper's Table V). The minimum propagation delay over
	// the schedule is the sharding lookahead, so every phase must
	// have PropDelay > 0.
	Network simnet.Schedule
	// Controller configures each device's FrameFeedback loop
	// (zero-value fields become the paper's Table IV).
	Controller controller.Config
	// GPU is the server accelerator; default TeslaV100.
	GPU *models.GPUProfile
	// ServerMaxBatch, ServerShed, AdmitCap configure the shared
	// server (defaults: package server defaults, ShedFIFO, 0).
	ServerMaxBatch int
	ServerShed     server.ShedPolicy
	AdmitCap       int
	// Deadline is the end-to-end offload deadline; default 250 ms.
	Deadline time.Duration
	// Profile and Model describe the devices; defaults Pi4B14 and
	// MobileNetV3Small.
	Profile *models.DeviceProfile
	Model   models.Model
	// Resolution and Quality size the offloaded frames; defaults
	// 224 px and JPEG quality 75.
	Resolution frame.Resolution
	Quality    frame.Quality
	// LocalQueueCap and LocalJitterRel mirror device.Config;
	// defaults 2 and 0.08.
	LocalQueueCap  int
	LocalJitterRel float64
	// ResponseBytes sizes downlink results; default 300.
	ResponseBytes int
	// Tenants maps device i to tenant i % Tenants for multi-tenant
	// fairness accounting; default 4.
	Tenants int
	// Load optionally drives a background-request injector at the
	// server (bypassing the network, as in the single-device runner).
	Load workload.LoadSchedule
	// Faults is the optional fault plan. Member-targeted faults land
	// identically regardless of shard count.
	Faults faults.Plan
	// CheckInvariants arms the per-tick run-time invariant checker.
	CheckInvariants bool
}

// DefaultFleetSchedule compresses the paper's Table V network
// degradation into a 10 s run: the same six phases (bandwidth collapse
// and recovery, then loss) at the same relative positions.
func DefaultFleetSchedule() simnet.Schedule {
	cond := func(mbps, loss float64) simnet.Conditions {
		return simnet.Conditions{
			BandwidthBps: simnet.Mbps(mbps),
			Loss:         loss,
			PropDelay:    5 * time.Millisecond,
		}
	}
	s := time.Second
	return simnet.Schedule{
		{Start: 0, Cond: cond(10, 0)},
		{Start: simtime.Time(5 * s / 2), Cond: cond(4, 0)},
		{Start: simtime.Time(4 * s), Cond: cond(1, 0)},
		{Start: simtime.Time(5 * s), Cond: cond(10, 0)},
		{Start: simtime.Time(7 * s), Cond: cond(10, 0.07)},
		{Start: simtime.Time(17 * s / 2), Cond: cond(4, 0.07)},
	}
}

func (c *FleetConfig) applyDefaults() {
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Workers <= 0 {
		c.Workers = c.Shards
	}
	if c.FS <= 0 {
		c.FS = 30
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	if c.Drain == 0 {
		c.Drain = time.Second
	}
	if c.Tick == 0 {
		c.Tick = time.Second
	}
	if c.Network == nil {
		c.Network = DefaultFleetSchedule()
	}
	if c.GPU == nil {
		c.GPU = models.TeslaV100()
	}
	if c.Deadline == 0 {
		c.Deadline = 250 * time.Millisecond
	}
	if c.Profile == nil {
		c.Profile = models.Pi4B14()
	}
	if c.Resolution == 0 {
		c.Resolution = frame.Res224
	}
	if c.Quality == 0 {
		c.Quality = frame.DefaultQuality
	}
	if c.LocalQueueCap == 0 {
		c.LocalQueueCap = 2
	}
	if c.LocalJitterRel == 0 {
		c.LocalJitterRel = 0.08
	}
	if c.ResponseBytes == 0 {
		c.ResponseBytes = 300
	}
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
}

// fleetDev is one device's complete flat state: embedded-value links,
// rng streams and controller, so a fleet of N devices is one slice
// with zero per-device heap objects. The up link's rng pointer aims at
// upRng in the same element, so the slice must never be reallocated
// after NewFleet wires it.
type fleetDev struct {
	up       simnet.Link
	upRng    rng.Stream
	localRng rng.Stream
	sizeRng  rng.Stream
	ctl      controller.Flat

	po, credit float64
	msgSeq     uint64
	tenant     int32
	localQueue int32
	localBusy  bool

	captured, attempts, offOK       uint64
	timedOut, rejected              uint64
	localDone, localDropped         uint64
	acquires                        uint64
	prevTimeouts, prevOK, prevLocal uint64
}

// offRec is a pooled in-flight offload record. Records live in
// per-shard pools addressed by index; gen tags detect stale callbacks
// after a record was freed at its terminal outcome.
type offRec struct {
	gen        uint32
	nextFree   int32
	capturedAt simtime.Time
	deadline   simtime.Event
}

type fleetShard struct {
	recs     []offRec
	freeRec  int32
	gates    [gkCount]*fleetGate
	firstDev int // == shard index; devices step by K
	sweeps   uint64
}

// Gate kinds: each shard owns one tiny callback object per kind, so
// scheduler events need no closures and tokens stay free for payload.
const (
	gkSweep = iota // per-shard capture sweep; token = frame-window index
	gkLocalDone
	gkDeadline
	gkNetPhase
	gkFault
	gkSubmit // shard 0: uplink message reached the server
	gkOK     // device shard: success response arrived
	gkReject // device shard: rejection response arrived
	gkCount
)

type fleetGate struct {
	f     *Fleet
	shard int32
	kind  int32
}

func (g *fleetGate) OnSchedEvent(token uint64) {
	g.f.dispatch(int(g.shard), int(g.kind), token)
}

// fleetFault is one pre-resolved fault action; tokens into the gkFault
// gate index this table.
type fleetFault struct {
	kind   faults.Kind
	on     bool
	dev    int // LinkPartition target; -1 = all
	factor float64
	rate   float64
}

// Fleet is a running fleet-scale simulation. Construct with NewFleet,
// advance with StepTick, and collect with Finish (or use RunFleet).
type Fleet struct {
	cfg FleetConfig
	eng *simtime.Sharded
	srv *server.Server
	inj *workload.Injector

	devs     []fleetDev
	downs    []simnet.Link
	downRngs []rng.Stream
	shards   []fleetShard
	factions []fleetFault

	sizeModel   frame.SizeModel
	framePeriod simtime.Time
	localLatNs  float64
	deadlineDur simtime.Time

	ticks    []simtime.Time // precomputed control instants
	tickIdx  int
	lastTick simtime.Time
	endAt    simtime.Time

	srvSeq uint64

	checker   *faults.Checker
	snapBuf   []faults.DeviceSnapshot
	tenantBuf []faults.TenantSnapshot
	err       error

	// Per-tick aggregate history (preallocated; cheap means only).
	HistTime, HistPoMean, HistTRate []float64

	finished bool
}

// FleetResult aggregates a completed fleet run. StateHash folds every
// per-device counter, the final controller outputs and the server
// totals into one digest: two runs are behaviourally identical iff
// their hashes match, which is the byte-identity key the shard/worker
// invariance tests pin.
type FleetResult struct {
	Devices, Shards, Workers int
	Ticks                    int
	Events                   uint64

	// Final per-device Po distribution (frames/s).
	PoMean, PoP50, PoP99 float64
	// Whole-run per-device timeout rate distribution (frames/s).
	TMean, TP50, TP99 float64

	Captured, OffloadAttempts, OffloadOK uint64
	OffloadTimedOut, OffloadRejected     uint64
	LocalDone, LocalDropped              uint64
	Server                               server.Stats
	JainTenants                          float64
	StateHash                            uint64
	InvariantErr                         error
}

const fleetIdxMask = MaxFleetDevices - 1

func fleetToken(gen uint32, rec, dev int) uint64 {
	return uint64(gen&0xffffff)<<40 | uint64(rec)<<20 | uint64(dev)
}

// NewFleet builds the engine, the flat device bank and the shard-0
// server, and schedules the initial events. The setup order (network
// phases, then faults, then device captures, in global index order) is
// fixed so same-instant ties resolve identically for every shard
// count.
func NewFleet(cfg FleetConfig) *Fleet {
	cfg.applyDefaults()
	if cfg.Devices <= 0 || cfg.Devices > MaxFleetDevices {
		panic(fmt.Sprintf("scenario: FleetConfig.Devices %d outside [1, %d]", cfg.Devices, MaxFleetDevices))
	}
	if err := cfg.Network.Validate(); err != nil {
		panic(err)
	}
	if err := cfg.Faults.Validate(); err != nil {
		panic(err)
	}
	lookahead := simtime.Time(math.MaxInt64)
	for _, ph := range cfg.Network {
		if ph.Cond.PropDelay <= 0 {
			panic("scenario: fleet network phases need PropDelay > 0 (it is the sharding lookahead)")
		}
		if simtime.Time(ph.Cond.PropDelay) < lookahead {
			lookahead = simtime.Time(ph.Cond.PropDelay)
		}
	}
	k := cfg.Shards
	f := &Fleet{
		cfg:         cfg,
		eng:         simtime.NewSharded(k, lookahead, cfg.Workers),
		devs:        make([]fleetDev, cfg.Devices),
		downs:       make([]simnet.Link, cfg.Devices),
		downRngs:    make([]rng.Stream, cfg.Devices),
		shards:      make([]fleetShard, k),
		sizeModel:   frame.DefaultSizeModel(),
		framePeriod: simtime.Time(float64(time.Second) / cfg.FS),
		localLatNs:  float64(cfg.Profile.LocalLatency(cfg.Model)),
		deadlineDur: simtime.Time(cfg.Deadline),
		endAt:       simtime.Time(cfg.Duration + cfg.Drain),
	}

	for s := range f.shards {
		sh := &f.shards[s]
		sh.freeRec = -1
		sh.firstDev = s
		for kind := 0; kind < gkCount; kind++ {
			sh.gates[kind] = &fleetGate{f: f, shard: int32(s), kind: int32(kind)}
		}
	}

	// rng tree: one draw sequence regardless of shard layout.
	root := rng.New(cfg.Seed)
	srvRng := root.Split(1)
	var injRng, fltRng *rng.Stream
	needInj := len(cfg.Load) > 0 || cfg.Faults.HasKind(faults.TenantChurn)
	if needInj {
		injRng = root.Split(2)
	}
	if len(cfg.Faults) > 0 {
		fltRng = root.Split(3)
	}

	f.srv = server.New(f.eng.Shard(0), srvRng, server.Config{
		GPU:      cfg.GPU,
		MaxBatch: cfg.ServerMaxBatch,
		Shed:     cfg.ServerShed,
		AdmitCap: cfg.AdmitCap,
	})
	if needInj {
		sched := cfg.Load
		if len(sched) == 0 {
			sched = workload.LoadSchedule{{Start: 0, Rate: 0}}
		}
		f.inj = workload.NewInjector(f.eng.Shard(0), injRng, f.srv, workload.InjectorConfig{Schedule: sched})
	}

	cond0 := cfg.Network.At(0)
	// Every device starts from the same controller state: validate and
	// build it once, copy it per device.
	var ctl0 controller.Flat
	ctl0.Init(cfg.Controller)
	for i := range f.devs {
		d := &f.devs[i]
		p := root.SplitOff(uint64(10 + i))
		d.upRng = p.SplitOff(1)
		f.downRngs[i] = p.SplitOff(2)
		d.localRng = p.SplitOff(3)
		d.sizeRng = p.SplitOff(4)
		d.up.Init(&d.upRng, cond0)
		f.downs[i].Init(&f.downRngs[i], cond0)
		d.ctl = ctl0
		d.po = ctl0.Po()
		d.tenant = int32(i % cfg.Tenants)
	}

	// Control instants, with any TickJitter skews pre-drawn in nominal
	// order so the list is identical for every shard layout.
	nTicks := int(cfg.Duration / cfg.Tick)
	f.ticks = make([]simtime.Time, nTicks)
	prev := simtime.Time(0)
	for t := 0; t < nTicks; t++ {
		at := simtime.Time(cfg.Tick) * simtime.Time(t+1)
		for _, in := range cfg.Faults {
			if in.Kind == faults.TickJitter && at >= in.At && at < in.End() {
				at += simtime.Time(fltRng.Float64() * float64(in.Jitter))
			}
		}
		if at <= prev {
			at = prev + 1
		}
		if at > f.endAt {
			at = f.endAt
		}
		f.ticks[t] = at
		prev = at
	}
	f.HistTime = make([]float64, 0, nTicks)
	f.HistPoMean = make([]float64, 0, nTicks)
	f.HistTRate = make([]float64, 0, nTicks)

	if cfg.CheckInvariants || invariantChecking.Load() {
		f.checker = faults.NewChecker(cfg.Seed, cfg.Faults)
		f.snapBuf = make([]faults.DeviceSnapshot, cfg.Devices)
		f.tenantBuf = make([]faults.TenantSnapshot, 0, cfg.Tenants+1)
	}

	// Event setup, in a fixed order: network phase switches first,
	// then fault actions, then capture sweeps — so events landing on
	// the same instant fire in that precedence on every shard.
	for pi, ph := range cfg.Network {
		if ph.Start == 0 {
			continue // applied at link construction
		}
		for s := 0; s < k; s++ {
			f.eng.Shard(s).AtCall(ph.Start, f.shards[s].gates[gkNetPhase], uint64(pi))
		}
	}
	f.armFaults()
	// One sweep event per shard stands in for that shard's captures of
	// a whole frame window (see onSweep); window 0 starts at t=1, the
	// earliest device capture instant.
	for s := 0; s < k; s++ {
		f.eng.Shard(s).AtCall(1, f.shards[s].gates[gkSweep], 0)
	}
	return f
}

// armFaults pre-schedules every fault start/clear on the shards it
// touches. All instants come from the static plan, so the resulting
// event set is identical for every shard layout.
func (f *Fleet) armFaults() {
	k := f.cfg.Shards
	addAction := func(a fleetFault) int {
		f.factions = append(f.factions, a)
		return len(f.factions) - 1
	}
	for _, in := range f.cfg.Faults {
		switch in.Kind {
		case faults.ServerCrash:
			on := addAction(fleetFault{kind: in.Kind, on: true})
			off := addAction(fleetFault{kind: in.Kind})
			f.eng.Shard(0).AtCall(in.At, f.shards[0].gates[gkFault], uint64(on))
			f.eng.Shard(0).AtCall(in.End(), f.shards[0].gates[gkFault], uint64(off))
		case faults.GPUStall:
			on := addAction(fleetFault{kind: in.Kind, on: true, factor: in.Factor})
			off := addAction(fleetFault{kind: in.Kind, factor: 1})
			f.eng.Shard(0).AtCall(in.At, f.shards[0].gates[gkFault], uint64(on))
			f.eng.Shard(0).AtCall(in.End(), f.shards[0].gates[gkFault], uint64(off))
		case faults.TenantChurn:
			on := addAction(fleetFault{kind: in.Kind, on: true, rate: in.Rate})
			off := addAction(fleetFault{kind: in.Kind, rate: in.Rate})
			f.eng.Shard(0).AtCall(in.At, f.shards[0].gates[gkFault], uint64(on))
			f.eng.Shard(0).AtCall(in.End(), f.shards[0].gates[gkFault], uint64(off))
		case faults.LinkPartition:
			dev := in.Device
			if dev >= f.cfg.Devices {
				dev = -1
			}
			on := addAction(fleetFault{kind: in.Kind, on: true, dev: dev})
			off := addAction(fleetFault{kind: in.Kind, dev: dev})
			// Uplinks live with their devices; downlinks all live on
			// shard 0 — each owning shard gets its own copy of the
			// action at the same instant.
			for s := 0; s < k; s++ {
				if s != 0 && dev >= 0 && dev%k != s {
					continue
				}
				f.eng.Shard(s).AtCall(in.At, f.shards[s].gates[gkFault], uint64(on))
				f.eng.Shard(s).AtCall(in.End(), f.shards[s].gates[gkFault], uint64(off))
			}
		case faults.TickJitter:
			// Folded into the precomputed tick instants.
		}
	}
}

// dispatch routes a fired event to its handler. It runs on the
// goroutine executing shard s, which owns every piece of state it
// touches (shard 0 additionally owns the server, the injector and the
// downlink bank).
func (f *Fleet) dispatch(s, kind int, token uint64) {
	switch kind {
	case gkSweep:
		f.onSweep(s, int(token))
	case gkLocalDone:
		f.onLocalDone(s, int(token))
	case gkDeadline:
		f.onDeadline(s, token)
	case gkNetPhase:
		f.onNetPhase(s, int(token))
	case gkFault:
		f.onFault(s, int(token))
	case gkSubmit:
		f.onSubmit(token)
	case gkOK:
		f.onResponse(s, token, false)
	case gkReject:
		f.onResponse(s, token, true)
	}
}

// onSweep captures one frame window for every device of shard s. One
// event per shard per frame period replaces one event per device per
// frame — the dominant share of the steady-state event population.
// Each device is processed at its own nominal capture instant
// t_i(m) = m·framePeriod + max(framePeriod·i/N, 1) — the same stagger
// the per-device capture chain used — and that nominal time, not the
// sweep's firing time, drives the uplink transfer model, the deadline
// and the local-inference completion, so per-device timelines are
// unchanged in shape. All t_i(m) of window m lie at or after the
// sweep's firing instant W_m = m·framePeriod (so nothing schedules
// into the past), and any cross-shard post satisfies the lookahead
// contract because it travels a link whose propagation delay is at
// least the engine lookahead. Devices are walked in index order and
// the device→shard map is layout-invariant, so the merged event
// stream — and the final StateHash — is identical for every shard and
// worker count.
func (f *Fleet) onSweep(s, win int) {
	sch := f.eng.Shard(s)
	f.shards[s].sweeps++
	w0 := simtime.Time(win) * f.framePeriod
	dur := simtime.Time(f.cfg.Duration)
	if next := w0 + f.framePeriod; next < dur {
		sch.AtCall(next, f.shards[s].gates[gkSweep], uint64(win+1))
	}
	k := f.cfg.Shards
	n := uint64(f.cfg.Devices)
	for i := f.shards[s].firstDev; i < f.cfg.Devices; i += k {
		at := simtime.Time(uint64(f.framePeriod) * uint64(i) / n)
		if at == 0 {
			at = 1 // keep strictly inside the run
		}
		at += w0
		// The per-device chain stopped once its next capture would land
		// at or beyond Duration; window 0 always ran.
		if win > 0 && at >= dur {
			continue
		}
		f.capture(s, i, at)
	}
}

// capture processes one frame for one device at its nominal capture
// instant.
func (f *Fleet) capture(s, dev int, now simtime.Time) {
	d := &f.devs[dev]
	d.captured++
	bytes := f.sizeModel.Bytes(f.cfg.Resolution, f.cfg.Quality, &d.sizeRng)
	d.credit += d.po / f.cfg.FS
	if d.credit >= 1 {
		d.credit--
		f.offload(s, dev, now, bytes)
		return
	}
	f.local(s, dev, now)
}

// offload ships one frame: acquire a record, arm the deadline on the
// device's own shard, run the uplink transfer model, and — if the
// payload survives — post the arrival to the server shard. Uplink
// drops are blackholes: the armed deadline reports the miss, exactly
// as a device behind a dead link would observe it.
func (f *Fleet) offload(s, dev int, now simtime.Time, bytes int) {
	d := &f.devs[dev]
	d.attempts++
	d.acquires++
	sh := &f.shards[s]
	ri := sh.acquireRec()
	rec := &sh.recs[ri]
	rec.capturedAt = now
	tok := fleetToken(rec.gen, ri, dev)
	rec.deadline = f.eng.Shard(s).AtCall(now+f.deadlineDur, sh.gates[gkDeadline], tok)
	upAt, ok := d.up.TransferAt(now, bytes)
	if ok {
		d.msgSeq++
		f.eng.Post(s, 0, upAt, uint64(dev)+1, d.msgSeq, f.shards[0].gates[gkSubmit], tok)
	}
}

func (sh *fleetShard) acquireRec() int {
	if sh.freeRec >= 0 {
		ri := int(sh.freeRec)
		sh.freeRec = sh.recs[ri].nextFree
		sh.recs[ri].gen++
		if sh.recs[ri].gen&0xffffff == 0 {
			sh.recs[ri].gen++ // gen 0 within the 24-bit tag means "parked"
		}
		return ri
	}
	if len(sh.recs) >= MaxFleetDevices {
		panic("scenario: fleet offload record pool exceeds index space")
	}
	sh.recs = append(sh.recs, offRec{gen: 1, nextFree: -1})
	return len(sh.recs) - 1
}

func (sh *fleetShard) freeRecAt(ri int) {
	sh.recs[ri].gen++ // invalidate outstanding tokens immediately
	if sh.recs[ri].gen&0xffffff == 0 {
		sh.recs[ri].gen++
	}
	sh.recs[ri].deadline = simtime.Event{}
	sh.recs[ri].nextFree = sh.freeRec
	sh.freeRec = int32(ri)
}

// rec resolves a token against shard s's pool; nil if the record was
// recycled since the token was minted (a stale callback to ignore).
func (f *Fleet) rec(s int, token uint64) (*offRec, int) {
	ri := int(token >> 20 & fleetIdxMask)
	sh := &f.shards[s]
	if ri >= len(sh.recs) {
		return nil, ri
	}
	rec := &sh.recs[ri]
	if uint64(rec.gen&0xffffff) != token>>40 {
		return nil, ri
	}
	return rec, ri
}

func (f *Fleet) onDeadline(s int, token uint64) {
	rec, ri := f.rec(s, token)
	if rec == nil {
		return
	}
	d := &f.devs[token&fleetIdxMask]
	d.timedOut++
	f.shards[s].freeRecAt(ri)
}

// onSubmit runs on shard 0 when an uplink payload arrives: the frame
// enters the server's batch queue. It submits unconditionally — like
// the single-device runner, and necessarily so: whether the frame's
// deadline has already fired is source-shard state, and shard 0 may
// touch only its own. The response's generation check on the device's
// shard discards outcomes for frames already counted as missed.
func (f *Fleet) onSubmit(token uint64) {
	dev := int(token & fleetIdxMask)
	req := f.srv.AcquireRequest()
	req.ID = token
	req.Tenant = int(f.devs[dev].tenant)
	req.Model = f.cfg.Model
	req.Completer = f
	req.Token = token
	f.srv.Submit(req)
}

// CompleteRequest implements server.Completer on shard 0. Both
// executed results and rejections traverse the device's downlink as a
// response-sized transfer; crash drops and downlink drops are
// blackholes resolved by the device-side deadline. (The single-device
// runner delivers rejections instantly; the fleet model pays the wire
// both ways so no event ever needs to travel backwards in time across
// shards.)
func (f *Fleet) CompleteRequest(req *server.Request, res server.Result) {
	if res.Status == server.StatusDropped {
		return
	}
	token := req.Token
	dev := int(token & fleetIdxMask)
	now := f.eng.Shard(0).Now()
	downAt, ok := f.downs[dev].TransferAt(now, f.cfg.ResponseBytes)
	if !ok {
		return
	}
	kind := gkOK
	if res.Status == server.StatusRejected {
		kind = gkReject
	}
	s := dev % f.cfg.Shards
	f.srvSeq++
	f.eng.Post(0, s, downAt, 0, f.srvSeq, f.shards[s].gates[kind], token)
}

func (f *Fleet) onResponse(s int, token uint64, rejected bool) {
	rec, ri := f.rec(s, token)
	if rec == nil {
		return // the deadline fired first; the miss is already counted
	}
	d := &f.devs[token&fleetIdxMask]
	if rejected {
		d.rejected++
	} else {
		d.offOK++
	}
	rec.deadline.Cancel()
	f.shards[s].freeRecAt(ri)
}

func (f *Fleet) local(s, dev int, now simtime.Time) {
	d := &f.devs[dev]
	if d.localBusy && int(d.localQueue) >= f.cfg.LocalQueueCap {
		d.localDropped++
		return
	}
	d.localQueue++
	f.pumpLocal(s, dev, now)
}

func (f *Fleet) pumpLocal(s, dev int, now simtime.Time) {
	d := &f.devs[dev]
	if d.localBusy || d.localQueue == 0 {
		return
	}
	d.localQueue--
	d.localBusy = true
	lat := f.localLatNs
	if f.cfg.LocalJitterRel > 0 {
		lat = d.localRng.Jitter(lat, f.cfg.LocalJitterRel)
	}
	f.eng.Shard(s).AtCall(now+simtime.Time(lat), f.shards[s].gates[gkLocalDone], uint64(dev))
}

func (f *Fleet) onLocalDone(s, dev int) {
	d := &f.devs[dev]
	d.localDone++
	d.localBusy = false
	f.pumpLocal(s, dev, f.eng.Shard(s).Now())
}

func (f *Fleet) onNetPhase(s, phase int) {
	cond := f.cfg.Network[phase].Cond
	k := f.cfg.Shards
	for i := f.shards[s].firstDev; i < len(f.devs); i += k {
		f.devs[i].up.SetConditions(cond)
	}
	if s == 0 {
		for i := range f.downs {
			f.downs[i].SetConditions(cond)
		}
	}
}

func (f *Fleet) onFault(s, idx int) {
	a := f.factions[idx]
	switch a.kind {
	case faults.ServerCrash:
		if a.on {
			f.srv.Fail()
		} else {
			f.srv.Restore()
		}
	case faults.GPUStall:
		f.srv.SetSlowdown(a.factor)
	case faults.TenantChurn:
		if a.on {
			f.inj.AddExtraRate(a.rate)
		} else {
			f.inj.AddExtraRate(-a.rate)
		}
	case faults.LinkPartition:
		k := f.cfg.Shards
		if a.dev >= 0 {
			if a.dev%k == s {
				f.devs[a.dev].up.Partition(a.on)
			}
			if s == 0 {
				f.downs[a.dev].Partition(a.on)
			}
			return
		}
		for i := f.shards[s].firstDev; i < len(f.devs); i += k {
			f.devs[i].up.Partition(a.on)
		}
		if s == 0 {
			for i := range f.downs {
				f.downs[i].Partition(a.on)
			}
		}
	}
}

// StepTick advances the engine to the next control instant and runs
// one control tick across every device (in index order, on the driver
// goroutine, between epochs — so it may touch all shards' state).
// It returns false once all ticks have run.
func (f *Fleet) StepTick() bool {
	if f.tickIdx >= len(f.ticks) {
		return false
	}
	at := f.ticks[f.tickIdx]
	f.tickIdx++
	f.eng.AdvanceTo(at)
	dt := (at - f.lastTick).Seconds()
	if dt <= 0 {
		dt = f.cfg.Tick.Seconds()
	}
	f.lastTick = at

	var poSum, tSum float64
	for i := range f.devs {
		d := &f.devs[i]
		timeouts := d.timedOut + d.rejected
		m := controller.Measurement{
			Now:       at,
			FS:        f.cfg.FS,
			Po:        d.po,
			T:         float64(timeouts-d.prevTimeouts) / dt,
			Pl:        float64(d.localDone-d.prevLocal) / dt,
			OffloadOK: float64(d.offOK-d.prevOK) / dt,
		}
		d.prevTimeouts = timeouts
		d.prevLocal = d.localDone
		d.prevOK = d.offOK
		d.po = d.ctl.Next(m)
		poSum += d.po
		tSum += m.T
	}
	n := float64(len(f.devs))
	f.HistTime = append(f.HistTime, at.Seconds())
	f.HistPoMean = append(f.HistPoMean, poSum/n)
	f.HistTRate = append(f.HistTRate, tSum/n)

	if f.checker != nil && f.err == nil {
		f.err = f.runChecker(at)
	}
	return f.tickIdx < len(f.ticks)
}

func (f *Fleet) runChecker(now simtime.Time) error {
	for i := range f.devs {
		d := &f.devs[i]
		f.snapBuf[i] = faults.DeviceSnapshot{
			Tenant:          int(d.tenant),
			Po:              d.po,
			FS:              f.cfg.FS,
			PoolGen:         d.acquires,
			Captured:        d.captured,
			OffloadAttempts: d.attempts,
			OffloadOK:       d.offOK,
			OffloadTimedOut: d.timedOut,
			OffloadRejected: d.rejected,
			LocalDone:       d.localDone,
			LocalDropped:    d.localDropped,
		}
	}
	st := f.srv.Stats()
	srvSnap := faults.ServerSnapshot{
		Submitted: st.Submitted, Completed: st.Completed,
		Rejected: st.Rejected, Dropped: st.Dropped,
	}
	f.tenantBuf = f.tenantBuf[:0]
	for t := 0; t < f.cfg.Tenants; t++ {
		ts := f.srv.Tenant(t)
		f.tenantBuf = append(f.tenantBuf, faults.TenantSnapshot{
			Tenant: t, Submitted: ts.Submitted, Completed: ts.Completed,
			Rejected: ts.Rejected, Dropped: ts.Dropped,
		})
	}
	return f.checker.Check(now, f.snapBuf, srvSnap, f.tenantBuf)
}

// Err returns the first invariant violation, or nil.
func (f *Fleet) Err() error { return f.err }

// Finish runs any remaining ticks plus the drain window, shuts the
// engine down and aggregates the result. It is idempotent-hostile:
// call it exactly once.
func (f *Fleet) Finish() FleetResult {
	if f.finished {
		panic("scenario: Fleet.Finish called twice")
	}
	f.finished = true
	for f.StepTick() {
	}
	if f.inj != nil {
		f.inj.Stop()
	}
	f.eng.AdvanceTo(f.endAt)
	f.eng.Close()

	n := len(f.devs)
	res := FleetResult{
		Devices: n,
		Shards:  f.cfg.Shards,
		Workers: f.cfg.Workers,
		Ticks:   len(f.ticks),
		Events:  f.eng.Fired(),
		Server:  f.srv.Stats(),
	}
	durSec := f.cfg.Duration.Seconds()
	pos := make([]float64, n)
	ts := make([]float64, n)
	hash := uint64(1469598103934665603) // FNV offset basis
	mix := func(v uint64) {
		hash ^= v
		hash *= 1099511628211
	}
	for i := range f.devs {
		d := &f.devs[i]
		pos[i] = d.po
		ts[i] = float64(d.timedOut+d.rejected) / durSec
		res.Captured += d.captured
		res.OffloadAttempts += d.attempts
		res.OffloadOK += d.offOK
		res.OffloadTimedOut += d.timedOut
		res.OffloadRejected += d.rejected
		res.LocalDone += d.localDone
		res.LocalDropped += d.localDropped
		mix(math.Float64bits(d.po))
		mix(d.captured)
		mix(d.attempts)
		mix(d.offOK)
		mix(d.timedOut)
		mix(d.rejected)
		mix(d.localDone)
		mix(d.localDropped)
	}
	mix(res.Server.Submitted)
	mix(res.Server.Completed)
	mix(res.Server.Rejected)
	mix(res.Server.Dropped)
	mix(res.Server.Batches)
	res.StateHash = hash

	// Events reports logical simulation events. A sweep firing stands
	// in for one capture event per device it processes, so counting
	// captures instead of sweep firings keeps the figure identical to
	// the per-device-event scheme (and to any shard layout), which is
	// what the tracked events/s throughput metric divides.
	var sweeps uint64
	for s := range f.shards {
		sweeps += f.shards[s].sweeps
	}
	res.Events = res.Events - sweeps + res.Captured

	sort.Float64s(pos)
	sort.Float64s(ts)
	res.PoMean, res.PoP50, res.PoP99 = distStats(pos)
	res.TMean, res.TP50, res.TP99 = distStats(ts)
	res.JainTenants = f.jainTenants()
	res.InvariantErr = f.err
	return res
}

// distStats returns mean/p50/p99 of an ascending-sorted sample.
func distStats(sorted []float64) (mean, p50, p99 float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	q := func(p float64) float64 {
		i := int(p * float64(n-1))
		return sorted[i]
	}
	return sum / float64(n), q(0.50), q(0.99)
}

// jainTenants computes Jain's fairness index over per-tenant completed
// requests at the server; 1.0 when all tenants got equal service (or
// nothing happened at all).
func (f *Fleet) jainTenants() float64 {
	var sum, sumSq float64
	for t := 0; t < f.cfg.Tenants; t++ {
		x := float64(f.srv.Tenant(t).Completed)
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(f.cfg.Tenants) * sumSq)
}

// RunFleet builds and runs a fleet to completion.
func RunFleet(cfg FleetConfig) FleetResult {
	return NewFleet(cfg).Finish()
}
