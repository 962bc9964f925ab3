// Package daemon is the command line haacd and haacfleet share: the
// five flags both define, the TLS pair, the session and ops listeners,
// the banner lines that name them, the SIGINT/SIGTERM stop channel, and
// the serve loop with its drain and exit codes. Each command keeps its
// own flags, config, detail banner lines and totals line.
package daemon

import (
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"haac/internal/aes128"
)

// Main runs run with the process's arguments and standard streams and a
// stop channel that SIGINT or SIGTERM closes, then exits with the status
// run returns.
func Main(run func(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int) {
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		close(stop)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// Owner is what a command serves: a server.Server or a fleet.Fleet,
// through the server.Daemon each embeds.
type Owner interface {
	Serve(ln net.Listener) error
	ServeOps(ln net.Listener) error
	Close() error
}

// listen opens the session and ops listeners; tests replace it.
var listen = net.Listen

// Command is one daemon's command line. New registers the shared flags
// on Flags; the command adds its own, then calls Parse, builds its
// Owner from DrainTimeout and TLS, and hands it to Serve.
type Command struct {
	// Flags is the command's flag set, writing its diagnostics to stderr.
	Flags *flag.FlagSet
	// DrainTimeout is -drain-timeout, for the owner's config.
	DrainTimeout time.Duration
	// TLS is the -tls-cert/-tls-key pair Parse loaded; nil serves
	// plaintext.
	TLS *tls.Config

	name                         string
	stdout, stderr               io.Writer
	listen, ops, tlsCert, tlsKey string
}

// New starts the command line of the daemon called name, whose session
// listener defaults to listenAddr.
func New(name, listenAddr string, stdout, stderr io.Writer) *Command {
	c := &Command{Flags: flag.NewFlagSet(name, flag.ContinueOnError), name: name, stdout: stdout, stderr: stderr}
	fs := c.Flags
	fs.SetOutput(stderr)
	fs.StringVar(&c.listen, "listen", listenAddr, "session listen address")
	fs.StringVar(&c.ops, "ops", "", "operations HTTP address serving /healthz, /readyz and /metrics (empty = disabled)")
	fs.DurationVar(&c.DrainTimeout, "drain-timeout", 0, "shutdown grace for live sessions before they are force-closed (0 = 30s default, negative = wait indefinitely)")
	fs.StringVar(&c.tlsCert, "tls-cert", "", "PEM certificate for TLS on the session listener (requires -tls-key; empty = plaintext)")
	fs.StringVar(&c.tlsKey, "tls-key", "", "PEM private key for TLS on the session listener (requires -tls-cert)")
	return c
}

// Parse parses args and loads the TLS pair. When ok is false the
// command exits with code: 0 after -h, 2 on a usage error, already
// reported on stderr.
func (c *Command) Parse(args []string) (code int, ok bool) {
	if err := c.Flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	if c.tlsCert == "" && c.tlsKey == "" {
		return 0, true
	}
	if c.tlsCert == "" || c.tlsKey == "" {
		return c.Fail(2, errors.New("-tls-cert and -tls-key must be set together")), false
	}
	cert, err := tls.LoadX509KeyPair(c.tlsCert, c.tlsKey)
	if err != nil {
		return c.Fail(2, fmt.Errorf("loading TLS key pair: %w", err)), false
	}
	c.TLS = &tls.Config{Certificates: []tls.Certificate{cert}}
	return 0, true
}

// Fail reports err on stderr and returns code.
func (c *Command) Fail(code int, err error) int {
	fmt.Fprintln(c.stderr, err)
	return code
}

// Serve opens the session listener and, with -ops set, the ops
// listener, prints the banner — head and the session address, the ops
// address, then detail, one line each — and serves owner until stop
// closes or a listener breaks. On stop it drains the owner and prints
// the drain line and the line totals returns. It returns the exit
// status: 0 after a drain, 1 when a listener cannot be opened or
// breaks.
func (c *Command) Serve(owner Owner, stop <-chan struct{}, head string, detail []string, totals func() string) int {
	ln, err := listen("tcp", c.listen)
	if err != nil {
		return c.Fail(1, err)
	}
	var opsLn net.Listener
	if c.ops != "" {
		if opsLn, err = listen("tcp", c.ops); err != nil {
			ln.Close()
			return c.Fail(1, err)
		}
	}

	transport := "plaintext"
	if c.TLS != nil {
		transport = "TLS"
	}
	fmt.Fprintf(c.stdout, "%s: %s on %s (%s), aes128 backend %s\n", c.name, head, ln.Addr(), transport, aes128.Backend())
	if opsLn != nil {
		fmt.Fprintf(c.stdout, "%s: ops endpoints on http://%s (/healthz, /readyz, /metrics)\n", c.name, opsLn.Addr())
	}
	for _, line := range detail {
		fmt.Fprintln(c.stdout, line)
	}

	errc := make(chan error, 1)
	go func() { errc <- owner.Serve(ln) }()
	// A nil channel never delivers, so the select below ignores the
	// sidecar when -ops is unset.
	var opsErrc chan error
	if opsLn != nil {
		opsErrc = make(chan error, 1)
		go func() { opsErrc <- owner.ServeOps(opsLn) }()
	}
	select {
	case err := <-errc:
		// Serve only returns on its own when the listener breaks.
		owner.Close()
		return c.Fail(1, err)
	case err := <-opsErrc:
		// ServeOps only returns on its own when the ops listener breaks.
		owner.Close()
		<-errc
		return c.Fail(1, err)
	case <-stop:
		fmt.Fprintf(c.stdout, "%s: draining sessions\n", c.name)
		owner.Close()
		<-errc
		fmt.Fprintf(c.stdout, "%s: %s\n", c.name, totals())
		return 0
	}
}
