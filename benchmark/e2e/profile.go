package e2e

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profileHz is the CPU profiler's requested sampling rate for the traced
// repetition. The kernel's timer tick caps what is delivered; the sample
// count is reported so a reader can judge each share's resolution.
const profileHz = 500

// Layers are the names CPU samples are attributed to: the program's
// packages, the SDK plus the benchmark's own observer ("sdk"), the Go
// runtime split by job, system calls, and everything else.
var Layers = []string{
	"wire", "transport", "pbft", "core", "ledger", "partition", "order", "simnet",
	"cluster", "sdk", "types", "runtime_gc", "runtime_alloc", "runtime_sched", "syscall", "other",
}

// cpuShares merges CPU profiles with the toolchain's own pprof and returns
// each layer's share of the samples and the sample count. A sample counts
// towards the first frame, walking from the leaf to the root, that belongs
// to a layer. Attributing by the leaf alone would file a third of this
// program's CPU time under no layer: its hot leaves are the runtime's map
// lookup, memequal, memmove and SHA-256, whose cost belongs to the package
// that called them.
func cpuShares(profiles []string) (map[string]float64, int, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces", "-sample_index=samples"}, profiles...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	counts := make(map[string]int)
	total := 0
	// Each stack follows a line of dashes: "<count> <leaf>" and then one
	// caller per line. weight is 0 before the first stack and once the
	// current one has been attributed.
	weight, leaf := 0, false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 0:
		case strings.HasPrefix(f[0], "-----"):
			if weight > 0 {
				counts["other"] += weight
			}
			weight, leaf = 0, true
		case leaf:
			leaf = false
			if len(f) < 2 {
				return nil, 0, fmt.Errorf("go tool pprof: unexpected stack head %q", sc.Text())
			}
			if weight, err = strconv.Atoi(f[0]); err != nil {
				return nil, 0, fmt.Errorf("go tool pprof: unexpected stack head %q", sc.Text())
			}
			total += weight
			f = f[1:]
			fallthrough
		default:
			if l := layerOf(f[0]); weight > 0 && l != "" {
				counts[l] += weight
				weight = 0
			}
		}
	}
	if weight > 0 {
		counts["other"] += weight
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("go tool pprof: no samples in %v", profiles)
	}
	shares := make(map[string]float64, len(Layers))
	for _, l := range Layers {
		shares[l] = float64(counts[l]) / float64(total)
	}
	return shares, total, nil
}

// layerOf names the layer a function belongs to, or "" if it belongs to
// none: the standard library and the runtime's helpers work on behalf of
// their caller.
func layerOf(fn string) string {
	// The package path ends at the first dot after the last slash.
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg, name := fn[:slash+1+dot], fn[slash+1+dot+1:]
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		layer, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		for _, l := range Layers[:11] {
			if l == layer {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(pkg, "repro/"):
		return "sdk"
	case pkg == "syscall" || strings.HasSuffix(pkg, "runtime/syscall"):
		return "syscall"
	case pkg == "runtime":
		for _, job := range runtimeJobs {
			for _, p := range job.prefixes {
				if strings.HasPrefix(name, p) {
					return job.layer
				}
			}
		}
	}
	return ""
}

// runtimeJobs sorts the runtime's functions into collector, allocator and
// scheduler by name prefix. The lists cover what this program's profiles
// show; a runtime function on none of them counts towards its caller.
var runtimeJobs = []struct {
	layer    string
	prefixes []string
}{
	{"runtime_gc", []string{
		"gc", "scanobject", "scanblock", "scanstack", "scanframe", "scanConservative", "greyobject",
		"markroot", "markBits", "(*markBits)", "(*gcWork)", "(*gcBits", "(*gcControllerState)", "(*gcCPULimiterState)",
		"sweep", "(*sweepLocked)", "(*sweepLocker)", "(*activeSweep)", "bgsweep", "bgscavenge", "(*scavenge",
		"wbBufFlush", "(*wbBuf)", "wbZero", "wbMove", "bulkBarrier", "findObject", "spanOf", "(*mspan).markBits",
		"(*mspan).typePointers", "(*mspan).heapBitsSmallForAddr", "typePointers", "tryDeferToSpanScan", "shade", "pollFractionalWorkerExit",
		"(*mheap).nextSpanForSweep", "(*mheap).reclaim", "(*pageAlloc).scavenge", "(*stackScanState)", "(*lfstack)",
	}},
	{"runtime_alloc", []string{
		"malloc", "newobject", "newarray", "makeslice", "growslice", "makemap", "makechan", "nextFree",
		"(*mcache)", "(*mcentral)", "(*mheap).alloc", "(*mheap).init", "(*mheap).grow", "(*pageAlloc).alloc", "(*pageAlloc).find", "(*pageCache)",
		"(*mspan).nextFreeIndex", "(*mspan).init", "(*mspan).writeHeapBits", "(*mspan).initHeapBits", "heapSetType", "memclr",
		"deductAssistCredit", "profilealloc", "(*fixalloc)", "persistentalloc", "rawstring", "rawbyteslice",
		"slicebytetostring", "stringtoslicebyte", "concatstring", "publicationBarrier", "(*spanSet)",
	}},
	{"runtime_sched", []string{
		"schedule", "findRunnable", "park_m", "gopark", "goready", "ready", "mcall", "gogo", "execute", "goexit",
		"futex", "notesleep", "notewakeup", "notetsleep", "lock", "unlock", "procyield", "osyield", "usleep",
		"stopm", "startm", "wakep", "handoffp", "runq", "stealWork", "checkTimers", "(*timers)", "(*timer)",
		"netpoll", "epoll", "chansend", "chanrecv", "selectgo", "send", "recv", "sellock", "selunlock",
		"casgstatus", "acquirep", "releasep", "pidle", "mPark", "mput", "mget", "resetspinning", "(*mLockProfile)",
		"semacquire", "semrelease", "(*semaRoot)", "sync_runtime", "acquireSudog", "releaseSudog",
		"gosched", "gopreempt", "preempt", "(*randomEnum)", "(*randomOrder)", "globrunq", "injectglist", "(*gQueue)", "(*gList)",
		"(*guintptr)", "(*muintptr)", "(*puintptr)", "dropg", "newproc", "gfget", "gfput", "asyncPreempt", "(*waitq)",
	}},
}
