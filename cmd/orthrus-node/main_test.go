package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// lockedBuffer is an io.Writer the daemon writes and the test reads
// concurrently.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunFlagErrors pins the CLI error surface: flag errors are reported
// by the FlagSet (errAlreadyReported), usage errors name the problem, and
// -h exits cleanly.
func TestRunFlagErrors(t *testing.T) {
	stop := make(chan struct{})
	close(stop) // any run that gets past validation exits immediately
	cases := []struct {
		name string
		args []string
		want string // substring of the returned error; "" means nil
	}{
		{"help", []string{"-h"}, ""},
		{"bad flag", []string{"-no-such-flag"}, errAlreadyReported.Error()},
		{"bad duration", []string{"-duration", "bogus"}, errAlreadyReported.Error()},
		{"no peers", []string{"-id", "0"}, "-peers"},
		{"id out of range", []string{"-id", "5", "-peers", "a:1,b:2"}, "outside"},
		{"negative id", []string{"-peers", "a:1,b:2"}, "outside"},
		{"unknown protocol", []string{"-id", "0", "-peers", "127.0.0.1:0", "-protocol", "NoSuch"}, "unknown protocol"},
		{"negative load", []string{"-id", "0", "-peers", "127.0.0.1:0", "-load", "-1"}, "orthrus-node: -load must be 0 or a finite positive rate whose interval 1s/rate fits a time.Duration, got -1"},
		// NaN used to pass and quietly disable the client; +Inf gave a submit
		// loop that never sleeps; a tiny rate's interval overflowed negative.
		{"NaN load", []string{"-id", "0", "-peers", "127.0.0.1:0", "-load", "NaN"}, "-load must be 0 or a finite positive rate"},
		{"infinite load", []string{"-id", "0", "-peers", "127.0.0.1:0", "-load", "+Inf"}, "got +Inf"},
		{"load too small to pace", []string{"-id", "0", "-peers", "127.0.0.1:0", "-load", "1e-300"}, "got 1e-300"},
		{"negative duration", []string{"-id", "0", "-peers", "127.0.0.1:0", "-duration", "-5s"}, "orthrus-node: -duration must be non-negative, got -5s"},
		{"negative stats", []string{"-id", "0", "-peers", "127.0.0.1:0", "-stats", "-1s"}, "orthrus-node: -stats must be non-negative, got -1s"},
		{"negative queue cap", []string{"-id", "0", "-peers", "127.0.0.1:0", "-queue-cap", "-1"}, "orthrus-node: -queue-cap must be non-negative, got -1"},
		{"negative accounts", []string{"-id", "0", "-peers", "127.0.0.1:0", "-accounts", "-5"}, "orthrus-node: -accounts must be non-negative, got -5"},
		{"negative batch", []string{"-id", "0", "-peers", "127.0.0.1:0", "-batch", "-1"}, "BatchSize"},
		{"negative batch timeout", []string{"-id", "0", "-peers", "127.0.0.1:0", "-batch-timeout", "-1s"}, "BatchTimeout"},
		{"negative view timeout", []string{"-id", "0", "-peers", "127.0.0.1:0", "-view-timeout", "-1s"}, "ViewTimeout"},
		{"huge batch timeout", []string{"-id", "0", "-peers", "127.0.0.1:0", "-batch-timeout", "3h"}, "BatchTimeout"},
		{"huge view timeout", []string{"-id", "0", "-peers", "127.0.0.1:0", "-view-timeout", "2562047h"}, "ViewTimeout"},
		{"huge epoch", []string{"-id", "0", "-peers", "127.0.0.1:0", "-epoch", "4611686018427387904"}, "EpochLen"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr, stop)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("run(%v) = %v, want nil", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestRunUsageListsProtocols checks -h prints the registered protocol
// names (the baselines must be linked in).
func TestRunUsageListsProtocols(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr, nil); err != nil {
		t.Fatal(err)
	}
	// The engine defaults in the usage text are derived from core.Params.
	for _, name := range []string{"Orthrus", "ISS",
		"engine default 4096", "engine default 100ms", "engine default 10s", "engine default 32"} {
		if !strings.Contains(stderr.String(), name) {
			t.Fatalf("usage output missing %q:\n%s", name, stderr.String())
		}
	}
}

var statsRe = regexp.MustCompile(`event=stats blocks=(\d+) confirmed=(\d+)`)

// lastStats returns the latest stats line's blocks and confirmed counts.
func lastStats(out string) (blocks, confirmed int) {
	for _, m := range statsRe.FindAllStringSubmatch(out, -1) {
		blocks, _ = strconv.Atoi(m[1])
		confirmed, _ = strconv.Atoi(m[2])
	}
	return blocks, confirmed
}

// TestTCPLoopbackCluster boots a 4-replica cluster of real daemons over
// loopback TCP — pre-bound ephemeral listeners, node 0 running the
// built-in client — and waits until every replica has committed at least
// n blocks and confirmed transactions, then checks clean shutdown.
func TestTCPLoopbackCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP cluster; skipped under -short")
	}
	const n = 4
	peers := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		peers[i] = ln.Addr().String()
	}

	stop := make(chan struct{})
	outs := make([]*lockedBuffer, n)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		outs[i] = &lockedBuffer{}
		o := nodeOptions{
			id:       i,
			peers:    peers,
			protocol: "Orthrus",
			seed:     42,
			accounts: 64,
			stats:    50 * time.Millisecond,
			params:   core.Params{BatchTimeout: 50 * time.Millisecond, ViewTimeout: 10 * time.Second},
			listener: listeners[i],
		}
		if i == 0 {
			o.load = 200 // one client in the cluster
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- runNode(o, outs[i], io.Discard, stop)
		}()
	}

	// Wait for every replica to commit ≥ n blocks and confirm ≥ 1 tx.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ready := 0
		for i := 0; i < n; i++ {
			if blocks, confirmed := lastStats(outs[i].String()); blocks >= n && confirmed >= 1 {
				ready++
			}
		}
		if ready == n {
			break
		}
		if time.Now().After(deadline) {
			var state strings.Builder
			for i := 0; i < n; i++ {
				blocks, confirmed := lastStats(outs[i].String())
				fmt.Fprintf(&state, "node %d: blocks=%d confirmed=%d\n", i, blocks, confirmed)
			}
			t.Fatalf("cluster made no progress in 30s:\n%s", state.String())
		}
		time.Sleep(25 * time.Millisecond)
	}

	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("runNode returned %v", err)
		}
	}
	for i := 0; i < n; i++ {
		out := outs[i].String()
		if !strings.Contains(out, "event=start") {
			t.Fatalf("node %d output missing event=start:\n%s", i, out)
		}
		if !strings.Contains(out, "event=stop reason=signal") {
			t.Fatalf("node %d output missing clean stop line:\n%s", i, out)
		}
		// The sender rule must pass every honest frame: each stats line and
		// the stop line end in rejected=0.
		if all, zero := strings.Count(out, " rejected="), strings.Count(out, " rejected=0\n"); all < 2 || all != zero {
			t.Fatalf("node %d rejected honest traffic (%d of %d lines say rejected=0):\n%s", i, zero, all, out)
		}
	}
}
