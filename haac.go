// Package haac is the public API of the HAAC reproduction: a garbled-
// circuits stack (circuit builder, FreeXOR + re-keyed half-gates
// garbling, two-party protocol) together with the HAAC accelerator
// co-design from "HAAC: A Hardware-Software Co-Design to Accelerate
// Garbled Circuits" (ISCA 2023) — the optimizing compiler (reordering,
// renaming, eliminating spent wires, stream generation) and the
// cycle-level accelerator simulator (gate engines, sliding wire window,
// queues, DDR4/HBM2 streaming).
//
// The default garbling hash everywhere (Run2PC, GarbleAndEvaluate, the
// protocol options) is the paper's secure re-keyed construction: each
// AND gate derives fresh AES keys from its gate index. Its software
// hot path is one AES kernel call per gate — two fresh keys, each
// expanded once for the gate's blocks, and on AES-NI hosts expanded
// while the blocks encrypt — with zero allocations: the same cost
// model as HAAC's Half-Gate pipeline, quantified by the "rekey"
// experiment in cmd/haacbench and timed end to end as
// gc.garble_ns_per_and by the benchmark/ program.
//
// Typical flows:
//
//	// Build a circuit and run it as a real two-party computation.
//	b := haac.NewBuilder()
//	x := b.GarblerInputs(32)
//	y := b.EvaluatorInputs(32)
//	b.OutputWord(b.Add(x, y))
//	c := b.MustBuild()
//	out, err := haac.Run2PC(c, garblerBits, evalBits)
//
//	// The same computation over a reusable compiled plan with an
//	// 8-wide engine: the plan runs the circuit segment by segment,
//	// independent gates of a step are garbled by a worker pool, and each
//	// segment's tables go on the wire as soon as they are ready, like
//	// the paper's table-queue design.
//	plan, err := haac.Precompile(c)
//	out, err = haac.Run2PCWith(c, garblerBits, evalBits,
//		haac.RunOptions{Workers: 8, Plan: plan})
//
//	// Compile the same circuit for the accelerator and estimate its
//	// performance on the paper's 16-GE design.
//	cp, err := haac.Compile(c, haac.DefaultCompilerConfig())
//	res, err := haac.Simulate(cp, haac.DefaultHW())
//	fmt.Println(res.Time())
//
// The examples/ directory contains runnable programs for both paths,
// cmd/haacbench regenerates every table and figure of the paper, and
// `go run ./benchmark` times the 2PC stack.
package haac

import (
	"crypto/tls"
	"fmt"
	"net"

	"haac/internal/builder"
	"haac/internal/circuit"
	"haac/internal/compiler"
	"haac/internal/energy"
	"haac/internal/fleet"
	"haac/internal/gc"
	"haac/internal/label"
	"haac/internal/ot"
	"haac/internal/proto"
	"haac/internal/server"
	"haac/internal/sim"
	"haac/internal/workloads"
)

// Core circuit types.
type (
	// Circuit is the Boolean-circuit IR shared by garbling, compilation
	// and simulation.
	Circuit = circuit.Circuit
	// Gate is one gate of a Circuit.
	Gate = circuit.Gate
	// Wire identifies a circuit wire.
	Wire = circuit.Wire
	// Stats summarizes a circuit (gate counts, depth, ILP — Table 2).
	Stats = circuit.Stats
	// Builder constructs circuits from word-level operations.
	Builder = builder.B
	// Word is a little-endian bit-vector value in the Builder.
	Word = builder.Word
	// Workload is a named benchmark circuit with input generator and
	// native reference oracle.
	Workload = workloads.Workload
)

// Compiler and simulator types.
type (
	// CompilerConfig selects reordering/renaming/ESW and the hardware
	// shape the program is scheduled for.
	CompilerConfig = compiler.Config
	// ReorderMode selects Baseline, FullReorder or SegmentReorder.
	ReorderMode = compiler.ReorderMode
	// Compiled is a compiled HAAC program with its per-GE streams.
	Compiled = compiler.Compiled
	// HW is an accelerator configuration.
	HW = sim.HW
	// DRAM is a streaming memory model.
	DRAM = sim.DRAM
	// Result is a simulation outcome (cycles, traffic, events).
	Result = sim.Result
	// EnergyBreakdown is the per-component energy split of Fig. 9.
	EnergyBreakdown = energy.Breakdown
)

// Reorder modes, re-exported.
const (
	Baseline       = compiler.Baseline
	FullReorder    = compiler.FullReorder
	SegmentReorder = compiler.SegmentReorder
)

// DRAM presets from the paper's methodology.
var (
	DDR4 = sim.DDR4
	HBM2 = sim.HBM2
)

// NewBuilder returns an empty circuit builder.
func NewBuilder() *Builder { return builder.New() }

// DefaultCompilerConfig is the paper's headline compiler setting:
// full reorder + renaming + ESW for a 16-GE, 2 MB-SWW Evaluator.
func DefaultCompilerConfig() CompilerConfig { return compiler.DefaultConfig() }

// DefaultHW is the paper's headline hardware: 16 GEs, 2 MB SWW,
// 4 banks/GE, 1 GHz/2 GHz clocks, DDR4.
func DefaultHW() HW { return sim.DefaultHW() }

// Compile lowers a circuit to a HAAC program and runs the configured
// optimization passes.
func Compile(c *Circuit, cfg CompilerConfig) (*Compiled, error) {
	return compiler.Compile(c, cfg)
}

// Simulate runs a compiled program on a hardware configuration.
func Simulate(cp *Compiled, hw HW) (Result, error) { return sim.Simulate(cp, hw) }

// EnergyOf prices a simulation result with the Table 4 energy model.
func EnergyOf(r Result) EnergyBreakdown { return energy.Energy(r) }

// AreaOf returns the accelerator area in mm^2 for a configuration.
func AreaOf(hw HW) float64 {
	return energy.AreaFor(hw.NumGEs, hw.SWWWires*16).Total()
}

// Eval evaluates a circuit on plaintext inputs (the functional model).
func Eval(c *Circuit, garbler, evaluator []bool) ([]bool, error) {
	return c.Eval(garbler, evaluator)
}

// GarbleAndEvaluate runs the whole garbled execution locally (garble,
// encode, evaluate, decode) with the paper's re-keyed hash, on the
// gate-by-gate reference path the plan engine is tested against. It
// returns the plaintext outputs and is the simplest way to check a
// circuit under real garbling.
func GarbleAndEvaluate(c *Circuit, garbler, evaluator []bool, seed uint64) ([]bool, error) {
	seed, err := defaultSeed(seed)
	if err != nil {
		return nil, err
	}
	return gc.Run(c, gc.RekeyedHasher{}, seed, garbler, evaluator)
}

// defaultSeed draws a random nonzero seed when the caller passed zero.
func defaultSeed(seed uint64) (uint64, error) {
	if seed != 0 {
		return seed, nil
	}
	l, err := label.Rand()
	if err != nil {
		return 0, err
	}
	return l.Lo | 1, nil
}

// GarbleAndEvaluateWith is GarbleAndEvaluate on the plan engine:
// garbling and evaluation run over opts.Plan (compiled here when nil)
// across opts.Workers workers. The garbled output is byte-identical to
// GarbleAndEvaluate for the same seed.
func GarbleAndEvaluateWith(c *Circuit, garbler, evaluator []bool, seed uint64, opts RunOptions) ([]bool, error) {
	seed, err := defaultSeed(seed)
	if err != nil {
		return nil, err
	}
	plan, err := opts.planFor(c)
	if err != nil {
		return nil, err
	}
	h := gc.RekeyedHasher{}
	g, err := gc.GarblePlan(plan, h, label.NewSource(seed), opts.Workers)
	if err != nil {
		return nil, err
	}
	in, err := g.EncodeInputs(c, garbler, evaluator)
	if err != nil {
		return nil, err
	}
	out, err := gc.EvalPlan(plan, h, in, g.Tables, opts.Workers)
	if err != nil {
		return nil, err
	}
	return g.Decode(out)
}

// Precompiled is a reusable execution plan for one circuit: the wire
// space renamed onto a compact slot arena of width ≈ peak-live wires
// under a segment-local schedule — the paper's segment reordering
// (§4.2.1) and rename-and-evict memory idea (§3.1.4) applied to the
// software garbling engine. Build it once
// with Precompile and pass it via RunOptions.Plan to every
// Run2PCWith/RunGarblerWith/RunEvaluatorWith/GarbleAndEvaluateWith call
// on the same circuit; every run executes over a plan, so a call
// without one compiles its own each time, and sharing one amortizes
// schedule construction and renaming entirely. A Precompiled is
// immutable and safe for concurrent use.
type Precompiled struct {
	plan *circuit.Plan
}

// Precompile builds the reusable execution plan for a circuit.
func Precompile(c *Circuit) (*Precompiled, error) {
	p, err := circuit.NewPlan(c)
	if err != nil {
		return nil, err
	}
	return &Precompiled{plan: p}, nil
}

// Circuit returns the circuit the plan was compiled from.
func (p *Precompiled) Circuit() *Circuit { return p.plan.Circuit }

// NumSlots returns the width of the renamed slot space — the label
// arena a planned run touches, against the circuit's NumWires.
func (p *Precompiled) NumSlots() int { return p.plan.NumSlots }

// PeakLive returns the maximum number of simultaneously live wires.
func (p *Precompiled) PeakLive() int { return p.plan.PeakLive }

// RunOptions configures the execution engine of the two-party protocol
// and the local garbling helpers.
type RunOptions struct {
	// Workers is the width of the plan engine: 0 or 1 garbles and
	// evaluates on the calling goroutine, larger values split the
	// independent AND gates of each wide schedule step across that many
	// workers.
	// The wire format does not depend on it, so each party picks its
	// own width.
	Workers int
	// Plan, when non-nil, must come from Precompile on the same circuit
	// the run executes. When nil, each direct-connection call compiles
	// its own plan (about the cost of two garbles) and dialed
	// sessions share a small process-wide cache.
	Plan *Precompiled
	// Retry is the self-healing policy of sessions opened with Dial or
	// DialWith: with MaxAttempts > 1 the initial dial retries with capped
	// exponential backoff, and Session.Run transparently redials,
	// re-handshakes (the server re-verifies the circuit digest) and
	// replays a run broken by a drop, reset, deadline, malformed frame or
	// busy/draining refusal. Replay is safe because a run is a pure
	// function of its inputs — the server commits nothing until a run
	// completes. The zero policy disables retry; the direct-connection
	// entry points (Run2PC, RunGarbler, RunEvaluator) ignore it.
	Retry RetryPolicy
	// TLS, when non-nil, makes Dial/DialWith (and DialFleet) connect over
	// TLS — set ServerName (or InsecureSkipVerify plus certificate
	// pinning in tests) to authenticate the garbler. The peer must serve
	// with ServerConfig.TLS / FleetConfig.TLS. nil keeps the plaintext
	// default; the direct-connection entry points ignore it.
	TLS *tls.Config
	// Integrity requests the checksummed-frame wire tier: every
	// post-handshake byte travels in length+CRC32C frames, so corruption
	// anywhere in the stream surfaces as a typed retryable ErrIntegrity
	// instead of silently wrong outputs, and a session under a retry
	// policy resumes a broken bulk transfer from the last verified chunk
	// instead of replaying it. Sessions negotiate the tier at handshake
	// and fall back to the legacy wire against servers that decline
	// (check Session.Integrity); the direct-connection entry points
	// frame both directions unconditionally when set.
	Integrity bool
	// MaxRunBytes, when positive, bounds the transport bytes a dialed
	// session moves for one run; a breach surfaces as a permanent
	// ErrOverBudget. The server-side mirror is ServerConfig.MaxRunBytes.
	MaxRunBytes int64
	// PoolSize, when positive, asks Dial/DialWith (and DialFleet) for the
	// precomputed-OT session tier: the session banks about this many
	// random-OT correlations — base OTs and IKNP extension paid at dial
	// time and topped up in the background between runs — so a
	// steady-state Run's online oblivious transfer is a single
	// choice-correction XOR round with no public-key operations. Size it
	// at several runs' worth of evaluator inputs; a run that finds the
	// pool short falls back to on-demand OT for that run. Servers that
	// decline the tier (ServerConfig.DisablePooledOT) accept the session
	// unpooled — check Session.Pooled. The direct-connection entry
	// points ignore it.
	PoolSize int
	// PoolRefill is the background top-up chunk of a pooled session
	// (correlations per refill op). Default PoolSize/4.
	PoolRefill int
}

func (o RunOptions) proto() proto.Options {
	popts := proto.Options{OT: ot.DH, Workers: o.Workers, Integrity: o.Integrity}
	if o.Plan != nil {
		popts.Plan = o.Plan.plan
	}
	return popts
}

// planFor returns the plan a local run of c executes over: o.Plan when
// set (it must have been compiled from c), a freshly compiled one
// otherwise.
func (o RunOptions) planFor(c *Circuit) (*circuit.Plan, error) {
	if o.Plan == nil {
		return circuit.NewPlan(c)
	}
	if o.Plan.Circuit() != c {
		return nil, fmt.Errorf("haac: RunOptions.Plan was compiled from a different circuit")
	}
	return o.Plan.plan, nil
}

// Run2PC executes a real two-party computation over an in-memory
// connection: the calling process plays both roles on separate
// goroutines, with labels transferred via oblivious transfer. Useful
// for tests and demos; for networked execution see RunGarbler and
// RunEvaluator.
func Run2PC(c *Circuit, garbler, evaluator []bool) ([]bool, error) {
	return Run2PCWith(c, garbler, evaluator, RunOptions{})
}

// Run2PCWith is Run2PC with explicit engine options — e.g.
// RunOptions{Workers: 8} for an 8-wide engine on both sides. The two
// roles share one plan: opts.Plan, or one compiled here.
func Run2PCWith(c *Circuit, garbler, evaluator []bool, opts RunOptions) ([]bool, error) {
	popts := opts.proto()
	plan, err := opts.planFor(c)
	if err != nil {
		return nil, err
	}
	popts.Plan = plan
	ga, ev := net.Pipe()
	defer ga.Close()
	defer ev.Close()
	type res struct {
		bits []bool
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		bits, err := proto.RunGarbler(ga, c, garbler, popts)
		ch <- res{bits, err}
	}()
	out, err := proto.RunEvaluator(ev, c, evaluator, popts)
	if err != nil {
		return nil, err
	}
	gr := <-ch
	if gr.err != nil {
		return nil, fmt.Errorf("garbler: %w", gr.err)
	}
	return out, nil
}

// RunGarbler plays the garbler over conn (e.g. a TCP connection).
func RunGarbler(conn net.Conn, c *Circuit, garblerBits []bool) ([]bool, error) {
	return proto.RunGarbler(conn, c, garblerBits, proto.Options{OT: ot.DH})
}

// RunGarblerWith plays the garbler with explicit engine options.
func RunGarblerWith(conn net.Conn, c *Circuit, garblerBits []bool, opts RunOptions) ([]bool, error) {
	return proto.RunGarbler(conn, c, garblerBits, opts.proto())
}

// RunEvaluator plays the evaluator over conn.
func RunEvaluator(conn net.Conn, c *Circuit, evalBits []bool) ([]bool, error) {
	return proto.RunEvaluator(conn, c, evalBits, proto.Options{OT: ot.DH})
}

// RunEvaluatorWith plays the evaluator with explicit engine options.
func RunEvaluatorWith(conn net.Conn, c *Circuit, evalBits []bool, opts RunOptions) ([]bool, error) {
	return proto.RunEvaluator(conn, c, evalBits, opts.proto())
}

// Serving layer types, re-exported from internal/server: a concurrent
// 2PC garbler service with a shared precompiled-plan cache, per-circuit
// pooled runners, session handshakes bound to circuit digests, and
// graceful connection-draining shutdown.
type (
	// Server is a concurrent 2PC garbler service. Beyond Serve/Close it
	// carries the fleet operability surface: ServeOps/OpsHandler expose
	// /healthz and Prometheus /metrics over HTTP, and Stats snapshots
	// the counters behind them.
	Server = server.Server
	// ServerConfig configures a Server (circuits, plan-cache bound,
	// engine width, deterministic seeds for tests) and its operational
	// envelope: MaxSessions admission with typed ErrBusy shedding,
	// RunTimeout per-run deadlines, DrainTimeout-bounded Close, the
	// MaxPoolSize/DisablePooledOT precomputed-OT knobs, and the
	// AllowInsecureOT escape hatch for benchmarks.
	ServerConfig = server.Config
	// ServedCircuit registers one servable circuit with its garbler
	// input supplier.
	ServedCircuit = server.CircuitSpec
	// ServerStats is a snapshot of a server's counters: active sessions,
	// runs served/failed, cumulative run latency, bytes out/in,
	// plan-cache hits/misses/evictions, and admission/drain refusal
	// counts — the same numbers /metrics exports.
	ServerStats = server.Stats
	// Session is a client (evaluator) session against a serving garbler;
	// call Run repeatedly, Close when done.
	Session = server.Session
	// PlanCache is the shared build-once, LRU-bounded plan cache behind
	// a Server, usable standalone.
	PlanCache = server.PlanCache
	// RetryPolicy configures session self-healing: dial retries with
	// capped exponential backoff plus jitter, per-attempt handshake
	// deadlines, and transparent redial-and-replay inside Session.Run.
	RetryPolicy = server.RetryPolicy
	// ClientStats counts a session's self-healing activity — runs,
	// retries, reconnects, dial failures — plus its OT-pool hit/miss/
	// refill counters, and renders it in Prometheus text format via
	// MetricsText, mirroring the server's /metrics.
	ClientStats = server.ClientStats
)

// Typed serving errors, re-exported for errors.Is checks.
var (
	// ErrUnknownCircuit: the server has no circuit under the dialed id.
	ErrUnknownCircuit = server.ErrUnknownCircuit
	// ErrDigestMismatch: the client's circuit differs structurally from
	// the server's.
	ErrDigestMismatch = server.ErrDigestMismatch
	// ErrDraining: the server is shutting down and refused the run.
	ErrDraining = server.ErrDraining
	// ErrBusy: the server is at ServerConfig.MaxSessions and shed the
	// connection at handshake.
	ErrBusy = server.ErrBusy
	// ErrSessionClosed: the session's connection is gone (and, under a
	// retry policy, the attempt budget is spent).
	ErrSessionClosed = server.ErrSessionClosed
	// ErrMalformedFrame: wire input that is structurally invalid —
	// oversized length fields, unknown status or ack bytes — corruption
	// or a peer that does not speak the protocol.
	ErrMalformedFrame = server.ErrMalformedFrame
	// ErrIntegrity: a checksummed frame failed verification — the bytes
	// were damaged in transit. Retryable; under RunOptions.Retry the
	// session heals by reconnecting and resuming the broken transfer.
	ErrIntegrity = proto.ErrIntegrity
	// ErrOverBudget: the session or run was refused by a resource
	// budget (ServerConfig.MaxCircuitBytes / MaxRunBytes or the
	// client-side RunOptions.MaxRunBytes). Permanent — retrying the
	// same circuit against the same budget cannot succeed.
	ErrOverBudget = server.ErrOverBudget
	// ErrInternal: the server contained a panic in this session's
	// handler and refused it; other sessions are unaffected. Retryable.
	ErrInternal = server.ErrInternal
)

// NewServer builds a serving garbler from cfg; start it with
// Server.Serve on any net.Listener and stop it with Server.Close.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Serve builds a server from cfg and starts serving ln on a background
// goroutine, returning the Server handle — the one-call form of
// NewServer + go Server.Serve for daemons with one listener. Keep the
// handle: Server.Close is the graceful, connection-draining shutdown
// and Server.Stats the counters; a listener that fails after startup
// surfaces as an ordinary Accept error once Close observes it.
func Serve(ln net.Listener, cfg ServerConfig) (*Server, error) {
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	go s.Serve(ln)
	return s, nil
}

// Dial opens an evaluator session for circuitID against a serving
// garbler at addr. The caller's circuit must be structurally identical
// to the server's — its digest is verified during the handshake — and
// each Session.Run then executes one full garbled run.
func Dial(addr, circuitID string, c *Circuit) (*Session, error) {
	return DialWith(addr, circuitID, c, RunOptions{})
}

// DialWith is Dial with explicit engine options. RunOptions.Plan (from
// Precompile on the same circuit) gives the session a persistent
// evaluation runner with zero steady-state allocations per run; share
// one Precompiled across every session of a circuit. RunOptions.Retry
// makes the session self-healing: Session.Run then redials,
// re-handshakes and replays runs broken by transport faults, and
// Session.Stats counts the repair work.
func DialWith(addr, circuitID string, c *Circuit, opts RunOptions) (*Session, error) {
	sopts := server.Options{
		OT:          ot.DH,
		Workers:     opts.Workers,
		Retry:       opts.Retry,
		TLS:         opts.TLS,
		Integrity:   opts.Integrity,
		MaxRunBytes: opts.MaxRunBytes,
		PoolSize:    opts.PoolSize,
		PoolRefill:  opts.PoolRefill,
	}
	if opts.Plan != nil {
		sopts.Plan = opts.Plan.plan
	}
	return server.Dial(addr, circuitID, c, sopts)
}

// Fleet types, re-exported from internal/fleet: the digest-sharded
// front proxy that scales the serving layer across several garbler
// processes.
type (
	// Fleet is the front proxy: it routes each session to a backend by
	// rendezvous-hashing the circuit digest (so repeat circuits land on
	// warm plan caches), health-checks backends actively (/readyz
	// probes) and passively (per-backend circuit breakers), fails
	// sessions over to the next live backend, and supports
	// Drain/Undrain rolling restarts. ServeOps/OpsHandler expose its
	// own /healthz, /readyz and /metrics.
	Fleet = fleet.Fleet
	// FleetConfig configures a Fleet: the backend set, probe cadence,
	// breaker thresholds, drain bound, and optional TLS on either hop.
	FleetConfig = fleet.Config
	// FleetBackend names one backend garbler: its 2PC session address
	// and optional HTTP ops address for active probing.
	FleetBackend = fleet.Backend
	// FleetStats snapshots the proxy's counters — routes, refusals,
	// failovers, ejections/readmissions, spliced bytes — plus
	// per-backend breakdowns.
	FleetStats = fleet.Stats
)

// NewFleet builds the front proxy from cfg; start it with Fleet.Serve
// on any net.Listener and stop it with Fleet.Close.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// DialFleet opens an evaluator session through a fleet proxy at addr.
// The proxy speaks the exact server handshake, so this is Dial pointed
// at the fleet — a session with a retry policy (RunOptions.Retry via
// DialFleetWith) heals across backend failures: the redial lands on the
// proxy, which routes it to the next live backend.
func DialFleet(addr, circuitID string, c *Circuit) (*Session, error) {
	return DialWith(addr, circuitID, c, RunOptions{})
}

// DialFleetWith is DialFleet with explicit engine options; see DialWith.
func DialFleetWith(addr, circuitID string, c *Circuit, opts RunOptions) (*Session, error) {
	return DialWith(addr, circuitID, c, opts)
}

// CircuitDigest returns the canonical SHA-256 identity of a circuit —
// the value the serving handshake checks.
func CircuitDigest(c *Circuit) [32]byte { return circuit.Digest(c) }

// VIPSuite returns the paper's eight VIP-Bench workloads at evaluation
// scale; VIPSuiteSmall returns fast reduced-size variants.
func VIPSuite() []Workload { return workloads.VIPSuite() }

// VIPSuiteSmall returns reduced-size variants of the VIP workloads.
func VIPSuiteSmall() []Workload { return workloads.VIPSuiteSmall() }
