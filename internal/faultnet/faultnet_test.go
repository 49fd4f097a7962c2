package faultnet_test

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/pbft"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// n is the cluster size of every row; node n is the harness client, which
// sends but is never a destination.
const n = 4

// cluster is one backend under the decorator: sends go through net, and
// deliver hands every message still in flight to its handler. Until the
// first deliver nothing moves, so a verb applied between a send and it
// strikes the message in flight.
type cluster struct {
	net     *faultnet.Network
	inject  func(to int) // a message from the client, node n
	deliver func()

	mu  sync.Mutex
	got [n][]int // per node, the senders it heard from
}

func (c *cluster) register() {
	for i := 0; i < n; i++ {
		c.net.Register(i, func(from int, _ any) {
			c.mu.Lock()
			c.got[i] = append(c.got[i], from)
			c.mu.Unlock()
		})
	}
}

// heard lists, per node, the senders it heard from, sorted.
func (c *cluster) heard() [n][]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out [n][]int
	for i, g := range c.got {
		if len(g) > 0 {
			out[i] = append([]int(nil), g...)
			sort.Ints(out[i])
		}
	}
	return out
}

// msg is what every row sends: a real protocol message, since Proc encodes
// whatever it carries to another node.
var msg = &pbft.Commit{Seq: 1}

// backends builds the same cluster over the simulator and over Proc.
var backends = map[string]func(t *testing.T) *cluster{
	// The simulated network has one endpoint more than the decorator
	// covers: the client's, so that it can send.
	"simnet": func(t *testing.T) *cluster {
		sim := simnet.New(1)
		inner := simnet.NewNetwork(sim, n+1, simnet.NewFixed(10*time.Millisecond), nil)
		c := &cluster{net: faultnet.Wrap(inner, n)}
		c.inject = func(to int) { c.net.Send(n, to, msg) }
		c.deliver = func() { sim.RunAll(0) }
		return c
	},
	// Proc's loops start at the first deliver; a function each loop runs
	// after what its inbox already holds marks every earlier message
	// dispatched.
	"proc": func(t *testing.T) *cluster {
		proc := transport.NewProc(n)
		t.Cleanup(proc.Stop)
		c := &cluster{net: faultnet.Wrap(proc, n)}
		c.inject = func(to int) { proc.InjectTo(n, []int{to}, msg) }
		started := false
		c.deliver = func() {
			if !started {
				proc.Start(time.Now())
				started = true
			}
			var wg sync.WaitGroup
			wg.Add(n)
			for i := 0; i < n; i++ {
				proc.Node(i).Run(wg.Done)
			}
			wg.Wait()
		}
		return c
	},
}

// TestFaults runs one table of fault semantics over every backend: what a
// down endpoint or a cut link drops at send and in flight, and what it
// never drops.
func TestFaults(t *testing.T) {
	everyone := func(c *cluster) {
		for from := 0; from < n; from++ {
			c.net.Broadcast(from, msg)
		}
	}
	all := []int{0, 1, 2, 3}
	rows := []struct {
		name string
		run  func(c *cluster)
		want [n][]int
	}{
		{"no fault passes everything", func(c *cluster) {
			everyone(c)
			c.deliver()
		}, [n][]int{all, all, all, all}},
		{"a cut drops at send and a heal restores the links", func(c *cluster) {
			c.net.Partition([]int{0, 1}, []int{2, 3})
			everyone(c)
			c.deliver()
			c.net.Heal()
			everyone(c)
			c.deliver()
		}, [n][]int{{0, 0, 1, 1, 2, 3}, {0, 0, 1, 1, 2, 3}, {0, 1, 2, 2, 3, 3}, {0, 1, 2, 2, 3, 3}}},
		{"unlisted nodes form the implicit group", func(c *cluster) {
			c.net.Partition([]int{3})
			everyone(c)
			c.deliver()
		}, [n][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {3}}},
		{"a down endpoint neither sends nor receives", func(c *cluster) {
			c.net.SetDown(1, true)
			c.net.Send(0, 1, msg)
			c.net.Send(1, 0, msg)
			c.net.Send(1, 1, msg)
			c.deliver()
			c.net.SetDown(1, false)
			c.net.Send(0, 1, msg)
			c.deliver()
		}, [n][]int{nil, {0}, nil, nil}},
		{"a crash drops the messages in flight to it", func(c *cluster) {
			c.net.Send(0, 1, msg)
			c.net.SetDown(1, true)
			c.deliver()
		}, [n][]int{nil, nil, nil, nil}},
		{"a message in flight from a node that crashes arrives", func(c *cluster) {
			c.net.Send(0, 1, msg)
			c.net.SetDown(0, true)
			c.deliver()
		}, [n][]int{nil, {0}, nil, nil}},
		{"a cut drops the messages in flight across it", func(c *cluster) {
			c.net.Send(0, 1, msg)
			c.net.Send(0, 2, msg)
			c.net.Partition([]int{0, 2})
			c.deliver()
		}, [n][]int{nil, nil, {0}, nil}},
		{"a heal before delivery restores the message", func(c *cluster) {
			c.net.Send(0, 1, msg)
			c.net.Partition([]int{0}, []int{1})
			c.net.Heal()
			c.deliver()
		}, [n][]int{nil, {0}, nil, nil}},
		{"a self-link is never cut", func(c *cluster) {
			c.net.Partition([]int{0}, []int{1, 2, 3})
			c.net.Send(0, 0, msg)
			c.net.Broadcast(0, msg)
			c.deliver()
		}, [n][]int{{0, 0}, nil, nil, nil}},
		{"a partition replaces the previous one", func(c *cluster) {
			c.net.Partition([]int{0}, []int{1, 2, 3})
			c.net.Partition([]int{0, 1}, []int{2, 3})
			c.net.Send(0, 1, msg)
			c.net.Send(1, 2, msg)
			c.deliver()
		}, [n][]int{nil, {0}, nil, nil}},
		{"the client is never cut, a down receiver still drops", func(c *cluster) {
			c.net.Partition([]int{0, 1}, []int{2, 3})
			c.net.SetDown(3, true)
			for to := 0; to < n; to++ {
				c.inject(to)
			}
			c.deliver()
		}, [n][]int{{n}, {n}, {n}, nil}},
	}
	for name, build := range backends {
		for _, row := range rows {
			t.Run(fmt.Sprintf("%s/%s", name, row.name), func(t *testing.T) {
				c := build(t)
				c.register()
				row.run(c)
				if got := c.heard(); !reflect.DeepEqual(got, row.want) {
					t.Fatalf("senders heard, per node: got %v, want %v", got, row.want)
				}
			})
		}
	}
}
