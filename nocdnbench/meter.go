package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// hostCPU returns the machine's steal and total CPU time from /proc/stat,
// in clock ticks (zeros where it is unreadable).
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// meter measures one phase: wall time, process CPU and heap allocations,
// and the share of the machine's CPU time its hypervisor stole — the
// noise that moves every timing on a shared host. extra, when set, runs
// every 20 ms (the pending-record sampler).
type meter struct {
	start        time.Time
	cpu          time.Duration
	mallocs      uint64
	steal, total uint64
	stop         chan struct{}
	wg           sync.WaitGroup

	// paused excludes set-aside work (copying the WAL at the recovery cut)
	// from wall and CPU time.
	pausedWall, pausedCPU time.Duration
}

func startMeter(extra func()) *meter {
	// Start from a collected heap, so garbage left by set-up repetitions
	// is not collected on the measured clock.
	runtime.GC()
	m := &meter{stop: make(chan struct{})}
	if extra != nil {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			t := time.NewTicker(20 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-m.stop:
					return
				case <-t.C:
					extra()
				}
			}
		}()
	}
	m.mallocs = mallocs()
	m.steal, m.total = hostCPU()
	m.cpu = cpuTime()
	m.start = time.Now()
	return m
}

// pause runs fn outside the measured wall and CPU time.
func (m *meter) pause(fn func() error) error {
	w, c := time.Now(), cpuTime()
	err := fn()
	m.pausedWall += time.Since(w)
	m.pausedCPU += cpuTime() - c
	return err
}

type phase struct {
	wall, cpu time.Duration
	mallocs   uint64
	// steal is the share of the machine's CPU time stolen during the phase.
	steal float64
}

func (m *meter) finish() phase {
	p := phase{
		wall: time.Since(m.start) - m.pausedWall,
		cpu:  cpuTime() - m.cpu - m.pausedCPU,
	}
	p.mallocs = mallocs() - m.mallocs
	steal, total := hostCPU()
	p.steal = ratio(float64(steal-m.steal), float64(total-m.total))
	close(m.stop)
	m.wg.Wait()
	return p
}

// liveHeap is the heap a full collection finds live: what the program
// retains — caches, ledger, key and nonce tables, wrapper pools. It
// collects twice, because a sync.Pool's items (encoding/json's encode
// buffers, megabytes after a snapshot) survive one collection, and whether
// one happened since the last snapshot is a matter of timing.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}
