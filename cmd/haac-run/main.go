// Command haac-run executes a real two-party garbled-circuits
// computation over TCP: one invocation plays the garbler (listening),
// the other the evaluator (dialing). Labels for the evaluator's inputs
// are delivered with Diffie-Hellman oblivious transfer; tables stream
// segment by segment as they are garbled.
//
// Example — the millionaires' problem on two terminals:
//
//	haac-run -role garbler   -listen :9000 -workload Million-8 -value 200
//	haac-run -role evaluator -addr 127.0.0.1:9000 -workload Million-8 -value 150
//
// A third role, client, opens a session against a haacd serving daemon
// instead of a peer process and can execute many runs over one
// connection, amortizing the server's precompiled plan; -retries makes
// the session self-healing (transparent reconnect and replay against a
// restarted or flaky daemon):
//
//	haacd -workloads Million-8 -value 200 &
//	haac-run -role client -addr 127.0.0.1:9100 -workload Million-8 -value 150 -runs 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"haac/internal/circuit"
	"haac/internal/ot"
	"haac/internal/proto"
	"haac/internal/server"
	"haac/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, plays the selected
// role and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("haac-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	role := fs.String("role", "", "garbler, evaluator, or client (against a haacd daemon)")
	listen := fs.String("listen", ":9000", "garbler listen address")
	addr := fs.String("addr", "127.0.0.1:9000", "evaluator/client dial address")
	workload := fs.String("workload", "Million-8", "workload name (micro suite or small VIP suite)")
	value := fs.Uint64("value", 0, "this party's integer input (packed little-endian into its input bits)")
	otName := fs.String("ot", "dh", "oblivious transfer: dh, iknp, or insecure (benchmarks only)")
	runs := fs.Int("runs", 1, "client role: number of runs over the session")
	retries := fs.Int("retries", 0, "client role: max attempts per dial/run (>1 enables transparent reconnect and replay)")
	retryBackoff := fs.Duration("retry-backoff", 0, "client role: base backoff between retries (doubles per attempt, 0 = 50ms default)")
	integrity := fs.Bool("integrity", true, "client role: request the checksummed-frame wire tier (detects corruption, resumes broken transfers; falls back if the server declines)")
	maxRunBytes := fs.Int64("max-run-bytes", 0, "client role: per-run transport byte budget; a breach fails the run with a typed error (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *runs < 1 {
		fmt.Fprintln(stderr, "-runs must be at least 1")
		return 2
	}

	w, err := workloads.Find(*workload, true)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	c := w.Build()

	var otp ot.Protocol
	switch strings.ToLower(*otName) {
	case "dh":
		otp = ot.DH
	case "iknp":
		otp = ot.IKNP
	case "insecure":
		otp = ot.Insecure
	default:
		fmt.Fprintf(stderr, "unknown OT %q\n", *otName)
		return 2
	}
	opts := proto.Options{OT: otp}

	if strings.EqualFold(*role, "client") {
		return runClient(stdout, stderr, *addr, w, *value, *runs, server.Options{
			OT: otp, Integrity: *integrity, MaxRunBytes: *maxRunBytes,
			Retry: server.RetryPolicy{MaxAttempts: *retries, BaseBackoff: *retryBackoff},
		})
	}

	var conn net.Conn
	switch strings.ToLower(*role) {
	case "garbler":
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer ln.Close()
		fmt.Fprintf(stdout, "garbler: waiting for evaluator on %s (%s: %s)\n", ln.Addr(), w.Name, w.Description)
		conn, err = ln.Accept()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	case "evaluator":
		var err error
		conn, err = net.Dial("tcp", *addr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "evaluator: connected to %s (%s)\n", *addr, w.Name)
	default:
		fmt.Fprintln(stderr, "-role must be garbler, evaluator, or client")
		return 2
	}
	defer conn.Close()

	var out []bool
	if strings.EqualFold(*role, "garbler") {
		bits := circuit.UintToBools(*value, c.GarblerInputs)
		out, err = proto.RunGarbler(conn, c, bits, opts)
	} else {
		bits := circuit.UintToBools(*value, c.EvaluatorInputs)
		out, err = proto.RunEvaluator(conn, c, bits, opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "result bits: %v\n", out)
	fmt.Fprintf(stdout, "result as integer: %d\n", circuit.BoolsToUint(out))
	return 0
}

// runClient opens a session against a haacd daemon and executes the
// requested number of runs over it; the session compiles the circuit
// once, so every run reuses its plan runner.
func runClient(stdout, stderr io.Writer, addr string, w workloads.Workload, value uint64, runs int, opts server.Options) int {
	c := w.Build()
	sess, err := server.Dial(addr, w.Name, c, opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer sess.Close()
	wire := "legacy wire"
	if sess.Integrity() {
		wire = "integrity wire"
	}
	fmt.Fprintf(stdout, "client: session open to %s (%s, server plan %d slots, %s)\n", addr, w.Name, sess.NumSlots(), wire)
	bits := circuit.UintToBools(value, c.EvaluatorInputs)
	for i := 0; i < runs; i++ {
		out, err := sess.Run(bits)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "run %d result bits: %v\n", i+1, out)
		fmt.Fprintf(stdout, "run %d result as integer: %d\n", i+1, circuit.BoolsToUint(out))
	}
	if st := sess.Stats(); st.Retries > 0 || st.Reconnects > 0 || st.DialFailures > 0 {
		fmt.Fprintf(stdout, "client: healed %d retried runs (%d resumed mid-stream, %d fully replayed) over %d reconnects (%d failed redials)\n",
			st.Retries, st.Resumes, st.Retries-st.Resumes, st.Reconnects, st.DialFailures)
	}
	if st := sess.Stats(); st.IntegrityFailures > 0 {
		fmt.Fprintf(stdout, "client: detected %d corrupted transfers via frame checksums\n", st.IntegrityFailures)
	}
	return 0
}
