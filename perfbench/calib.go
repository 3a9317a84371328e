package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// cpuTime is the processor time the process has used, all threads, user
// and system. Unlike wall time it leaves out, on a kernel with steal-time
// accounting, the time the host took the virtual processors away, so it
// does not swing with how often other tenants of a shared host run.
func cpuTime() time.Duration { return clock(clockProcessCPUTime) }

// Linux clock ids for clock_gettime, which package syscall does not name.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func clock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}

// refSize is the reference kernel's working set in float64s (256 KiB),
// about the size of one repair request's records.
const refSize = 1 << 15

// refNominalMS is the reference kernel's processor time on the nominal
// host the end-to-end metrics are scaled to.
const refNominalMS = 1.0

// refKernel is fixed work that belongs to the benchmark, not the program,
// so no change to the program moves it: dependent floating-point
// arithmetic (exp, log, sqrt, as in the KDE and the posterior) over a
// strided walk of a working set, the mix the program's hot loops run. Its
// processor time samples how fast the host currently runs this process's
// code. On a shared virtual machine that changes by a third and more over
// minutes, with the load neighbours put on the same cores and caches (a
// busy neighbour can even make it faster, by keeping the cores out of idle
// states), and processor time moves with it; the kernel moves the same
// way, so a time divided by the run's median kernel time does not.
type refKernel struct {
	buf []float64
	// samples holds the processor time of every run, in milliseconds.
	samples []float64
	// sink keeps the compiler from dropping the work.
	sink float64
}

func newRefKernel() *refKernel {
	k := &refKernel{buf: make([]float64, refSize)}
	for i := range k.buf {
		k.buf[i] = float64(i%97) / 97
	}
	return k
}

// run does the fixed work once, about a millisecond, and records the
// processor time its thread took.
func (k *refKernel) run() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := clock(clockThreadCPUTime)
	acc, j := 0.0, 0
	for i := 0; i < refSize; i++ {
		j = (j + 4099) & (refSize - 1) // odd stride: visits every slot once
		x := k.buf[j]
		acc += math.Exp(-x*x) + math.Sqrt(x+acc*1e-9) - math.Log1p(x)
	}
	elapsed := clock(clockThreadCPUTime) - start
	k.sink += acc
	k.samples = append(k.samples, float64(elapsed)/float64(time.Millisecond))
}
