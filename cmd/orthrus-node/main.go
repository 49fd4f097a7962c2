// Command orthrus-node runs one consensus replica as a long-lived daemon
// over the real TCP transport: length-prefixed wire frames, lazy dials
// with reconnect backoff, and the unchanged core state machines driven by
// wall-clock timers. Start one process per replica with the same peer
// table and seed; peers may come up in any order.
//
// Usage (a local n=4 cluster):
//
//	PEERS=127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	orthrus-node -id 0 -peers $PEERS -load 200 &
//	orthrus-node -id 1 -peers $PEERS &
//	orthrus-node -id 2 -peers $PEERS &
//	orthrus-node -id 3 -peers $PEERS &
//
// Every replica must share -peers, -protocol, -seed and -accounts (they
// determine the genesis ledger and bucket assignment). Enable the
// built-in open-loop client (-load) on exactly one node: the workload
// generator is deterministic per seed, so two client nodes would submit
// identical transactions. The daemon logs structured per-replica lines
// (event=start|net|stats|backpressure|wire-error|view-change|stop) to
// stdout — stats and stop end in rejected=N, the messages the replica
// refused as misattributed or malformed (0 among honest peers) — and shuts
// down cleanly on SIGINT/SIGTERM or after -duration. On the -load node each
// stats line also reports confirm_p50_ms and confirm_p99_ms: the latency
// of the client's transactions that the node's own replica confirmed in
// that period (replica-local, not the client-visible f+1-th reply).
//
// A daemon that falls behind catches up from its peers' delivered-block
// logs, and answers their catch-up requests from its own, like every
// replica. It persists nothing: a restarted daemon starts from genesis
// and rejoins only while its peers' logs still reach back that far.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	_ "repro/internal/baseline" // register the comparison protocols
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
)

// nodeOptions is the parsed configuration of one daemon process. Tests
// construct it directly (with an injected Listener and stop channel);
// run() builds it from flags and signals.
type nodeOptions struct {
	id       int
	peers    []string
	listen   string // listen address override; "" uses peers[id]
	protocol string
	seed     int64
	accounts int

	load     float64       // built-in open-loop client rate; 0 disables
	duration time.Duration // 0 runs until the stop channel fires
	stats    time.Duration // stats log line period
	queueCap int           // per-peer outbound queue cap; 0 = transport default

	params core.Params // engine knobs; zeros take core's defaults

	listener net.Listener // test injection; nil listens on listen/peers[id]
}

// syncWriter serializes log lines from the node loop, the client
// goroutine and the transport's connectivity callbacks.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) logf(format string, args ...any) {
	s.mu.Lock()
	fmt.Fprintf(s.w, format+"\n", args...)
	s.mu.Unlock()
}

// errAlreadyReported marks failures the FlagSet already printed.
var errAlreadyReported = errors.New("orthrus-node: flag parsing failed")

func main() {
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		close(stop)
	}()
	if err := run(os.Args[1:], os.Stdout, os.Stderr, stop); err != nil {
		if !errors.Is(err, errAlreadyReported) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	}
}

// run parses flags and drives one replica until stop fires or -duration
// elapses. Split from main for tests.
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("orthrus-node", flag.ContinueOnError)
	var o nodeOptions
	fs.IntVar(&o.id, "id", -1, "replica id (index into -peers)")
	peers := fs.String("peers", "", "comma-separated host:port peer table, one per replica, index = id")
	fs.StringVar(&o.listen, "listen", "", "listen address override (default: the -peers entry for -id)")
	fs.StringVar(&o.protocol, "protocol", "Orthrus", "protocol to run: "+strings.Join(registry.Names(), ", "))
	fs.Int64Var(&o.seed, "seed", 42, "genesis/workload seed; must match on every replica")
	fs.IntVar(&o.accounts, "accounts", 0, "genesis account population (0 = workload default); must match on every replica")
	fs.Float64Var(&o.load, "load", 0, "built-in open-loop client rate in tx/s (enable on exactly one node; 0 disables)")
	fs.DurationVar(&o.duration, "duration", 0, "run length; 0 runs until SIGINT/SIGTERM")
	fs.DurationVar(&o.stats, "stats", time.Second, "period of event=stats log lines")
	fs.IntVar(&o.queueCap, "queue-cap", 0, "per-peer outbound queue cap in frames (0 = transport default 4096); overflow drops oldest and logs event=backpressure")
	def := core.Params{}.WithDefaults()
	fs.IntVar(&o.params.BatchSize, "batch", 0, fmt.Sprintf("batch size (0 = engine default %d)", def.BatchSize))
	fs.DurationVar(&o.params.BatchTimeout, "batch-timeout", 0, fmt.Sprintf("proposal pulse period (0 = engine default %v)", def.BatchTimeout))
	fs.DurationVar(&o.params.ViewTimeout, "view-timeout", 0, fmt.Sprintf("view-change timeout (0 = engine default %v)", def.ViewTimeout))
	fs.Uint64Var(&o.params.EpochLen, "epoch", 0, fmt.Sprintf("checkpoint epoch length in blocks (0 = engine default %d)", def.EpochLen))
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errAlreadyReported
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				o.peers = append(o.peers, p)
			}
		}
	}
	return runNode(o, stdout, stderr, stop)
}

// runNode validates the options, assembles transport + replica, and runs
// until the stop channel fires or the duration elapses.
func runNode(o nodeOptions, stdout, stderr io.Writer, stop <-chan struct{}) error {
	n := len(o.peers)
	if n < 1 {
		return fmt.Errorf("orthrus-node: -peers must list at least one host:port")
	}
	if o.id < 0 || o.id >= n {
		return fmt.Errorf("orthrus-node: -id %d outside the %d-entry peer table", o.id, n)
	}
	proto, err := registry.Lookup(o.protocol)
	if err != nil {
		return fmt.Errorf("orthrus-node: %w", err)
	}
	// A negative value is a mistake, not a request for the default or for no
	// limit: -accounts, for one, is part of the genesis every replica must
	// agree on.
	var flags core.Violations
	const nonNeg = "must be non-negative, got %v"
	flags.AddLoad("-load", o.load)
	flags.Add(o.duration < 0, "-duration", nonNeg, o.duration)
	flags.Add(o.stats < 0, "-stats", nonNeg, o.stats)
	flags.Add(o.queueCap < 0, "-queue-cap", nonNeg, o.queueCap)
	flags.Add(o.accounts < 0, "-accounts", nonNeg, o.accounts)
	if len(flags) > 0 {
		return fmt.Errorf("orthrus-node: %s %s", flags[0].Field, flags[0].Reason)
	}
	if bad := o.params.Check(); len(bad) > 0 {
		return fmt.Errorf("orthrus-node: invalid %s: %s", bad[0].Field, bad[0].Reason)
	}
	if o.stats == 0 {
		o.stats = time.Second
	}
	out := &syncWriter{w: stdout}
	logf := func(event, format string, args ...any) {
		out.logf("orthrus-node id=%d event=%s "+format, append([]any{o.id, event}, args...)...)
	}

	if o.listen != "" && o.listener == nil {
		// Listen on the override (e.g. 0.0.0.0:port behind NAT) while
		// peers keep dialing the advertised -peers entry.
		ln, err := net.Listen("tcp", o.listen)
		if err != nil {
			return fmt.Errorf("orthrus-node: listen %s: %w", o.listen, err)
		}
		o.listener = ln
	}
	node := transport.NewNode()
	tcp, err := transport.NewTCP(o.id, o.peers, node, transport.TCPOptions{
		Listener: o.listener,
		QueueCap: o.queueCap,
		Logf:     func(format string, args ...any) { logf("net", format, args...) },
	})
	if err != nil {
		return fmt.Errorf("orthrus-node: %w", err) // node loop not started yet; nothing to stop
	}
	defer func() {
		tcp.Close()
		node.Stop()
	}()

	gen := workload.New(workload.Config{Seed: o.seed, Accounts: o.accounts})

	// blocks and the replica's own counters are touched only on the node's
	// event-loop goroutine (replica hooks and the stats timer both run
	// there); the final stop line reads them after node.Stop, when the loop
	// is gone.
	var blocks uint64
	ccfg := core.NewConfig(n, o.id, proto.New(), o.params, gen.Genesis())
	ccfg.OnBlockDeliver = func(instance int, b *types.Block) {
		blocks++
	}
	ccfg.OnViewChange = func(instance int, view uint64, at types.Time) {
		logf("view-change", "instance=%d view=%d", instance, view)
	}
	// lat holds the stats period's confirm latencies on the -load node,
	// whose client is the cluster's only one, as this replica saw them.
	// Client and node share one epoch, so both stamps are on one clock.
	var lat []time.Duration
	if o.load > 0 {
		ccfg.OnConfirm = func(_ *types.Transaction, _ bool, st core.StageTrace) {
			lat = append(lat, time.Duration(st.Confirmed-st.Submit))
		}
	}
	replica := core.NewReplica(ccfg, node, tcp)
	counters := func(latency string) string {
		ok, failed := replica.Confirmed()
		return fmt.Sprintf("blocks=%d confirmed=%d aborted=%d%s msgs=%d bytes=%d dropped=%d rejected=%d",
			blocks, ok+failed, failed, latency, tcp.Messages(), tcp.Bytes(), tcp.Dropped(), replica.Rejected())
	}
	// period renders the stats period's confirm latency on the -load node
	// ("-" when nothing confirmed in it) and starts the next period.
	period := func() string {
		switch {
		case o.load <= 0:
			return ""
		case len(lat) == 0:
			return " confirm_p50_ms=- confirm_p99_ms=-"
		}
		s := metrics.Summarize(lat)
		lat = lat[:0]
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		return fmt.Sprintf(" confirm_p50_ms=%.3f confirm_p99_ms=%.3f", ms(s.P50), ms(s.P99))
	}

	// Recurring stats line, scheduled on the node's own clock so it reads
	// the counters race-free on the loop goroutine. Backpressure and
	// wire-error anomalies get their own structured events, emitted only
	// when the counters moved since the previous tick — rate-limited to at
	// most one line per stats period each, however many frames were
	// dropped, so a wedged peer cannot flood the log.
	var lastDropped, lastEncErrs, lastDecErrs uint64
	var statsTick func(_, _ any)
	statsTick = func(_, _ any) {
		logf("stats", "%s", counters(period()))
		if d := tcp.Dropped(); d > lastDropped {
			logf("backpressure", "dropped=%d total=%d", d-lastDropped, d)
			lastDropped = d
		}
		if e, d := tcp.EncodeErrors(), tcp.DecodeErrors(); e > lastEncErrs || d > lastDecErrs {
			logf("wire-error", "encode_errors=%d decode_errors=%d", e, d)
			lastEncErrs, lastDecErrs = e, d
		}
		types.CallAfter(node, o.stats, statsTick, nil, nil)
	}
	types.CallAfter(node, o.stats, statsTick, nil, nil)

	logf("start", "protocol=%s n=%d f=%d addr=%s seed=%d load=%g",
		o.protocol, n, ccfg.F, tcp.Addr(), o.seed, o.load)
	replica.Start()
	epoch := time.Now() // the node's clock and the client's submission stamps
	node.Start(epoch)

	// Built-in open-loop client: submit each transaction where
	// core.SubmitRouter says (the censorship-resistant policy of Sec. V-B),
	// over the same wire frames as protocol traffic.
	clientQuit := make(chan struct{})
	var clientWG sync.WaitGroup
	if o.load > 0 {
		clientWG.Add(1)
		go func() {
			defer clientWG.Done()
			interval := time.Duration(float64(time.Second) / o.load)
			router := core.NewSubmitRouter(n, ccfg.F)
			for k := 0; ; k++ {
				select {
				case <-clientQuit:
					return
				default:
				}
				if d := time.Until(epoch.Add(time.Duration(k) * interval)); d > 0 {
					select {
					case <-clientQuit:
						return
					case <-time.After(d):
					}
				}
				tx := gen.Next()
				tx.SubmitNS = int64(time.Since(epoch))
				// The local replica receives the message itself, on its own
				// goroutine: hand it over last, once every remote target's
				// copy is encoded, and never touch the transaction again.
				msg, targets := &core.SubmitMsg{Tx: tx}, router.Targets(tx)
				for _, target := range targets {
					if target != o.id {
						tcp.Send(o.id, target, msg)
					}
				}
				if slices.Contains(targets, o.id) {
					tcp.Send(o.id, o.id, msg)
				}
			}
		}()
	}

	// Block until told to stop.
	reason := "signal"
	if o.duration > 0 {
		select {
		case <-stop:
		case <-time.After(o.duration):
			reason = "duration"
		}
	} else {
		<-stop
	}
	close(clientQuit)
	clientWG.Wait()
	tcp.Close()
	node.Stop()
	logf("stop", "reason=%s %s", reason, counters(""))
	return nil
}
