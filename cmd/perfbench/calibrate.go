package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
)

// Machines that share their cores with other tenants drift in speed by
// 20% and more over seconds to minutes: on a shared 2-vCPU VM the same
// clouddrive_loss op on the same seed ran at 1200 or at 1700 cells per
// second depending on when it ran, and its CPU time moved with it.
// So that a metric compares code rather than moments, a run times a
// fixed reference kernel between its ops, and the time-based end-to-end
// metrics are scaled by how much slower than refNominal the kernel ran:
// a run on a machine whose kernel takes refNominal reports the raw
// figures. The kernel uses only the standard library and memory of its
// own, so nothing in the repository can change its speed; a Go
// toolchain change can.

// refNominal is the kernel time the scaled metrics are expressed at.
const refNominal = 30 * time.Millisecond

// refEvery is the least time between kernel runs, so that short ops do
// not spend most of a run calibrating.
const refEvery = 300 * time.Millisecond

// harness runs fn, and any goroutine it starts, under a profiler label
// that marks the benchmark's own work between ops: CPU profiles leave it
// out (profile.go).
func harness(fn func()) {
	pprof.Do(context.Background(), pprof.Labels("perfbench", "harness"), func(context.Context) { fn() })
}

// refKernel hashes, scrambles and fills a hash table on every proc at
// once, in memory mapped outside the Go heap for each calibration and
// unmapped after it: the kernel must not change what the collector sees,
// or its state would raise the heap goal of the ops it calibrates.
type refKernel struct {
	durs []time.Duration
	errs []error
}

const (
	refPasses     = 6
	refDataBytes  = 512 << 10
	refTableBits  = 18
	refTableSlots = 1 << refTableBits // 8-byte slots, 2 MiB: past the caches
)

func newRefKernel(procs int) *refKernel {
	return &refKernel{durs: make([]time.Duration, procs), errs: make([]error, procs)}
}

// calibrate collects the garbage the last op left, so that no collection
// overlaps the kernel, and returns the kernel's time: the mean over
// procs of each proc's own run, which leaves out goroutine start-up.
func (k *refKernel) calibrate() (time.Duration, error) {
	var mean time.Duration
	harness(func() {
		runtime.GC()
		var wg sync.WaitGroup
		for p := range k.durs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				k.durs[p], k.errs[p] = refRun(uint64(p + 1))
			}()
		}
		wg.Wait()
		for _, d := range k.durs {
			mean += d / time.Duration(len(k.durs))
		}
	})
	return mean, errors.Join(k.errs...)
}

// refRun is one proc's kernel run.
func refRun(seed uint64) (time.Duration, error) {
	mem, err := syscall.Mmap(-1, 0, refDataBytes+8*refTableSlots, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return 0, fmt.Errorf("calibration mmap: %w", err)
	}
	defer syscall.Munmap(mem)
	data, table := mem[:refDataBytes], mem[refDataBytes:]

	start := time.Now()
	x := seed
	for pass := 0; pass < refPasses; pass++ {
		for i := 0; i+8 <= len(data); i += 8 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			binary.LittleEndian.PutUint64(data[i:], x)
		}
		for i := 0; i < 4; i++ {
			sum := sha256.Sum256(data)
			copy(data[i*len(sum):], sum[:])
		}
		// Open addressing with linear probing, half full: random
		// accesses across the table.
		clear(table)
		for i := 0; i+8 <= len(data); i += 8 {
			for j := uint64(0); j < 2; j++ {
				key := binary.LittleEndian.Uint64(data[i:]) + j | 1
				slot := (key * 0x9e3779b97f4a7c15) >> (64 - refTableBits)
				for binary.LittleEndian.Uint64(table[8*slot:]) != 0 {
					slot = (slot + 1) % refTableSlots
				}
				binary.LittleEndian.PutUint64(table[8*slot:], key)
			}
		}
	}
	return time.Since(start), nil
}
