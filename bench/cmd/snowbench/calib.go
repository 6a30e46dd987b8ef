package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// The machines this benchmark runs on are shared: over minutes their
// speed drifts by a quarter or more, and every CPU-bound timing drifts
// with it. So CPU-bound workloads pause their clients every
// calibPeriod, time a fixed kernel on the otherwise idle machine, and
// report each op's time scaled to the speed at which the kernel takes
// refCalibMS: "ms at reference speed". The kernel mixes the kinds of
// work the program does (hashing, random table access, map inserts,
// sorting, streaming through memory) and shares no code with it. Its
// random accesses stay within a core's own cache: over a table in the
// shared last-level cache, its time varied from one process to the next
// with where its pages landed. The stream makes it feel the memory
// bandwidth other tenants take, which slows corpus_census most. It runs in
// a fresh process of its own, because inside the workload's process its
// time depends on that process's heap, garbage collector and goroutines,
// which a change to the program can move.

// refCalibMS is the kernel's median time on a quiet 2-CPU 2.0 GHz VM,
// so that scaled times there read as wall-clock times.
const refCalibMS = 3.0

// calibPeriod is how often a calibrated workload pauses to calibrate.
const calibPeriod = time.Second

// calibrationProcess times the kernel in a fresh process and returns
// the fastest of kernelRuns runs in ms: interruptions only add time.
func calibrationProcess() (float64, error) {
	var out bytes.Buffer
	if _, err := runSelf(roleCalibrate, nil, &out, 30*time.Second); err != nil {
		return 0, err
	}
	var ms float64
	if err := json.Unmarshal(out.Bytes(), &ms); err != nil || !(ms > 0) {
		return 0, fmt.Errorf("calibration process: bad result %q: %v", out.Bytes(), err)
	}
	return ms, nil
}

// kernelRuns is how many times a calibration process runs the kernel;
// the first run also faults the kernel's memory in, so it is rarely the
// fastest.
const kernelRuns = 5

// calibrationRuns is the body of a calibration process.
func calibrationRuns() float64 {
	k := &kernelState{buf: make([]byte, 64<<10), table: make([]uint32, 1<<17), ints: make([]int, 20000),
		m: make(map[uint32]uint32, 20000), stream: make([]uint64, 2<<20)}
	for i := range k.buf {
		k.buf[i] = byte(i * 131)
	}
	best := math.Inf(1)
	for i := 0; i < kernelRuns; i++ {
		best = min(best, k.run())
	}
	return best
}

// kernelState is the kernel's working memory.
type kernelState struct {
	buf    []byte
	table  []uint32 // 512 KiB
	ints   []int
	m      map[uint32]uint32
	stream []uint64 // 16 MiB, read in order
}

var calibSink uint64

// run runs the kernel once and returns its wall time in ms. It
// allocates nothing.
func (k *kernelState) run() float64 {
	t0 := time.Now()
	var acc uint64
	for i := 0; i < 4; i++ {
		sum := sha256.Sum256(k.buf)
		acc += uint64(sum[0])
	}
	x := uint32(acc) | 1
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for i := 0; i < 1<<17; i++ {
		v := next()
		k.table[v&uint32(len(k.table)-1)] += v
	}
	clear(k.m)
	for i := range k.ints {
		v := next()
		k.m[v] += uint32(i)
		k.ints[i] = int(v)
	}
	sort.Ints(k.ints)
	for _, v := range k.stream {
		acc += v
	}
	calibSink = acc + uint64(len(k.m)) + uint64(k.ints[len(k.ints)/2])
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
