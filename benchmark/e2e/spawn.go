package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"unsafe"
)

// Subprocess returns the Runner that re-executes exe with the repetition
// as its "-rep" argument, confined to one CPU, and reads the statistics it
// prints. The child is waited for before the call returns.
func Subprocess(exe string) Runner {
	return func(spec RepSpec) (*RepStats, error) {
		arg, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe, "-rep", string(arg))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := startOnOneCPU(cmd); err != nil {
			return nil, fmt.Errorf("repetition of %s: %w", spec.Workload.Name, err)
		}
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("repetition of %s: %w: %s", spec.Workload.Name, err, strings.TrimSpace(stderr.String()))
		}
		var stats RepStats
		if err := json.Unmarshal(stdout.Bytes(), &stats); err != nil {
			return nil, fmt.Errorf("repetition of %s: %w", spec.Workload.Name, err)
		}
		return &stats, nil
	}
}

// cpuSet is a CPU affinity mask as the kernel takes it: 1024 CPUs.
type cpuSet [16]uint64

func (s *cpuSet) syscall(trap uintptr) error {
	if _, _, errno := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s))); errno != 0 {
		return errno
	}
	return nil
}

// startOnOneCPU starts cmd confined to the highest-numbered CPU this
// process may use (the lowest takes most of the host's housekeeping).
//
// Left free on a two-core host, the kernel either spreads a process's
// threads over both cores or packs them on one, and stays with its choice
// for tens of seconds: packed, the same cluster burns a quarter less CPU
// per transaction (no cross-core wake-ups) and answers a third more slowly
// at p99. Which it picks is not the program's doing, and ten-run medians
// flip with it. One CPU leaves the kernel no choice. The price is that a
// repetition never runs two replicas at the same instant, so lock
// contention between them does not show.
//
// A child inherits the affinity of the thread that forks it, so the mask
// is narrowed on this thread only, around the fork.
func startOnOneCPU(cmd *exec.Cmd) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var allowed, one cpuSet
	if err := allowed.syscall(syscall.SYS_SCHED_GETAFFINITY); err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	for w := len(allowed) - 1; w >= 0; w-- {
		if allowed[w] != 0 {
			one[w] = 1 << (bits.Len64(allowed[w]) - 1)
			break
		}
	}
	if err := one.syscall(syscall.SYS_SCHED_SETAFFINITY); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	err := cmd.Start()
	if rerr := allowed.syscall(syscall.SYS_SCHED_SETAFFINITY); err == nil && rerr != nil {
		err = fmt.Errorf("sched_setaffinity: %w", rerr)
	}
	return err
}
