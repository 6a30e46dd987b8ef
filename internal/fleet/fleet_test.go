package fleet

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"snowbma/internal/obs"
	"snowbma/internal/service"
	"snowbma/internal/store"
)

// The fleet tests need real worker *processes* — a goroutine cannot be
// SIGKILLed — so the test binary re-execs itself: with
// SNOWBMA_FLEET_WORKER=1 in the environment, TestMain becomes a worker
// main (a service engine behind its HTTP API on a loopback port)
// instead of running the tests. The parent reads the child's address
// from its first stdout line and kills it with Process.Kill, which is
// SIGKILL: no deferred cleanup, no WAL sync, no goodbye — exactly the
// crash the durable store must survive.
func TestMain(m *testing.M) {
	if os.Getenv("SNOWBMA_FLEET_WORKER") == "1" {
		runWorkerProcess()
		return
	}
	os.Exit(m.Run())
}

// envInt reads an integer knob from the worker environment.
func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// runWorkerProcess is the re-exec'd worker main. Knobs (all env):
// SNOWBMA_WORKER_STORE (WAL directory; empty = volatile),
// SNOWBMA_WORKER_POOL (service worker pool width, default 1),
// SNOWBMA_WORKER_RIG_MS (modelled rig occupancy per job, default 0).
func runWorkerProcess() {
	cfg := service.Config{
		Workers:    envInt("SNOWBMA_WORKER_POOL", 1),
		QueueDepth: 256,
		RigLatency: time.Duration(envInt("SNOWBMA_WORKER_RIG_MS", 0)) * time.Millisecond,
	}
	if dir := os.Getenv("SNOWBMA_WORKER_STORE"); dir != "" {
		st, err := store.OpenDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker: open store: %v\n", err)
			os.Exit(1)
		}
		cfg.Store = st
	}
	eng, err := service.Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker: open engine: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker: listen: %v\n", err)
		os.Exit(1)
	}
	// The parent parses this exact line for the address.
	fmt.Printf("WORKER_ADDR=%s\n", ln.Addr())
	http.Serve(ln, eng.Handler()) //nolint:errcheck // killed, never returns
}

// workerProc is one spawned worker process.
type workerProc struct {
	cmd *exec.Cmd
	url string
}

// startWorker spawns a worker process and waits for its address. The
// storeDir may be "" for a volatile worker.
func startWorker(t testing.TB, storeDir string, pool, rigMS int) *workerProc {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"SNOWBMA_FLEET_WORKER=1",
		"SNOWBMA_WORKER_STORE="+storeDir,
		fmt.Sprintf("SNOWBMA_WORKER_POOL=%d", pool),
		fmt.Sprintf("SNOWBMA_WORKER_RIG_MS=%d", rigMS),
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &workerProc{cmd: cmd}
	t.Cleanup(func() { p.kill() })

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "WORKER_ADDR="); ok {
				addrCh <- addr
				break
			}
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			t.Fatal("worker process exited before printing its address")
		}
		p.url = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("worker process did not report its address in 30s")
	}
	return p
}

// kill SIGKILLs the worker and reaps it. Idempotent.
func (p *workerProc) kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill() //nolint:errcheck // already dead is fine
	}
	p.cmd.Wait() //nolint:errcheck // SIGKILL exit status is expected
}

// attackSpec builds a job spec for one victim seed (distinct seeds =
// distinct victims = distinct shards).
func attackSpec(seed int64) service.JobSpec {
	return service.JobSpec{
		Kind:   service.KindAttack,
		Victim: service.VictimSpec{Seed: seed},
	}
}

// TestFleetKillRestartSmoke is the crash drill from the issue: a worker
// joins mid-campaign, gets SIGKILLed while owning jobs, restarts from
// its WAL, and every submitted job still reaches a terminal state
// exactly once — no loss (a job stuck forever), no duplication (a
// second terminal transition for the same fleet job).
func TestFleetKillRestartSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const jobs = 12
	rigMS := 150

	dir1 := t.TempDir()
	dir2 := t.TempDir()
	w1 := startWorker(t, dir1, 2, rigMS)

	c := New(Config{
		Workers:        map[string]string{"w1": w1.url},
		HealthInterval: 50 * time.Millisecond,
		LeaseTTL:       300 * time.Millisecond,
		Logf:           t.Logf,
	})
	defer c.Shutdown(context.Background())

	// First wave: half the campaign, all to w1 (it is the whole fleet).
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs/2; i++ {
		st, err := c.Submit(attackSpec(int64(1000 + i%2)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	waitTerminalCount := func(n int) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			done := 0
			for _, st := range c.List() {
				if service.Terminal(st.State) {
					done++
				}
			}
			if done >= n {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("fewer than %d jobs terminal after 60s: %+v", n, c.List())
	}

	// Mid-campaign: a second worker joins the fleet...
	waitTerminalCount(2)
	w2 := startWorker(t, dir2, 2, rigMS)
	c.AddWorker("w2", w2.url)

	// ...and the second wave arrives, seeded so some shards provably
	// belong to the newcomer.
	w2seed := func() int64 {
		for s := int64(1); ; s++ {
			c.mu.Lock()
			owner := c.ring.GetLive(shardKey(attackSpec(s)), nil)
			c.mu.Unlock()
			if owner == "w2" {
				return s
			}
		}
	}()
	for i := jobs / 2; i < jobs; i++ {
		seed := w2seed
		if i%3 == 0 {
			seed = int64(1000 + i%2) // keep w1 busy too
		}
		st, err := c.Submit(attackSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	// Once the newcomer owns live work, SIGKILL it holding that work.
	deadline := time.Now().Add(30 * time.Second)
	for {
		owned := 0
		for _, st := range c.List() {
			if st.Worker == "w2" && !service.Terminal(st.State) {
				owned++
			}
		}
		if owned > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("w2 never owned a live job; the kill would strand nothing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	w2.kill()
	t.Log("w2 SIGKILLed")

	// Restart it from the same WAL at a new address: its incomplete
	// jobs recover worker-side while the coordinator may have already
	// reassigned them — the duplicate-completion path the coordinator
	// must suppress.
	waitTerminalCount(4)
	w2b := startWorker(t, dir2, 2, rigMS)
	c.AddWorker("w2", w2b.url)

	// Every job terminal.
	for _, id := range ids {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		st, err := c.Wait(ctx, id)
		cancel()
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if st.State != service.StateDone {
			t.Fatalf("%s finished %s (%s), want done", id, st.State, st.Error)
		}
	}

	// Exactly once: the bus holds every lifecycle event; each job must
	// have exactly one terminal transition.
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, backlog := c.bus.SubscribeFrom(0, 1)
	terminals := map[string]int{}
	for _, ev := range backlog {
		if ev.Type == obs.EventJob && service.Terminal(ev.Name) {
			terminals[ev.Job]++
		}
	}
	for _, id := range ids {
		if terminals[id] != 1 {
			t.Fatalf("job %s has %d terminal transitions, want exactly 1 (%v)", id, terminals[id], terminals)
		}
	}
	if len(terminals) != jobs {
		t.Fatalf("%d jobs produced terminal transitions, want %d", len(terminals), jobs)
	}
	t.Logf("smoke: %d jobs, terminal exactly once each", jobs)
}

// TestFleetLeaseReassignment exercises the lease path without a
// restart: the owning worker dies for good and its jobs move to the
// survivor.
func TestFleetLeaseReassignment(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	w1 := startWorker(t, "", 1, 150)
	w2 := startWorker(t, "", 1, 150)
	c := New(Config{
		Workers:        map[string]string{"w1": w1.url, "w2": w2.url},
		HealthInterval: 50 * time.Millisecond,
		LeaseTTL:       300 * time.Millisecond,
		Logf:           t.Logf,
	})
	defer c.Shutdown(context.Background())

	// Find seeds owned by each worker so the kill provably strands work.
	seedFor := func(name string) int64 {
		for s := int64(1); ; s++ {
			c.mu.Lock()
			owner := c.ring.GetLive(shardKey(attackSpec(s)), nil)
			c.mu.Unlock()
			if owner == name {
				return s
			}
		}
	}
	s1, s2 := seedFor("w1"), seedFor("w2")
	var ids []string
	for i := 0; i < 3; i++ {
		for _, s := range []int64{s1, s2} {
			st, err := c.Submit(attackSpec(s))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
		}
	}
	w1.kill()

	reassigned := 0
	for _, id := range ids {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		st, err := c.Wait(ctx, id)
		cancel()
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if st.State != service.StateDone {
			t.Fatalf("%s finished %s (%s), want done", id, st.State, st.Error)
		}
		if st.Worker != "w2" {
			t.Fatalf("%s finished on %q; only w2 is alive", id, st.Worker)
		}
		reassigned += st.Reassigned
	}
	if reassigned == 0 {
		t.Fatal("killing w1 stranded no jobs — the test proved nothing")
	}
}

// BenchmarkFleetThroughput measures jobs/sec through the coordinator at
// 1, 2 and 4 worker processes. Each worker process models one physical
// attack rig (pool width 1, SNOWBMA_WORKER_RIG_MS of device-bound
// programming/capture per job), so adding processes adds rigs — the
// scaling a hardware fleet would see, measurable even on a single-core
// CI box because rig occupancy is wait, not compute. The submitted load
// is one distinct victim per rig, dealt round-robin, so the measurement
// is rig scaling rather than whatever imbalance a fixed seed list
// happens to hash into. One benchmark op is one completed job.
func BenchmarkFleetThroughput(b *testing.B) {
	// Rig occupancy per job. Must dominate the ~50ms of actual attack
	// compute: the compute serializes across worker processes on a
	// single-core box, so too small a rig wait would measure the CPU,
	// not the fleet.
	const rigMS = 900
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", n), func(b *testing.B) {
			workers := map[string]string{}
			for i := 0; i < n; i++ {
				w := startWorker(b, "", 1, rigMS)
				workers[fmt.Sprintf("w%d", i)] = w.url
			}
			c := New(Config{
				Workers:        workers,
				HealthInterval: 50 * time.Millisecond,
				LeaseTTL:       2 * time.Second,
				eventBuffer:    1 << 15,
			})
			defer c.Shutdown(context.Background())

			// One seed per worker, found by probing the ring: arbitrary
			// seeds can hash lopsidedly onto a small fleet, which would
			// measure the imbalance instead of the rig scaling. With the
			// round-robin below each rig gets exactly its share.
			seeds := make([]int64, 0, n)
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("w%d", i)
				for s := int64(1); ; s++ {
					c.mu.Lock()
					owner := c.ring.GetLive(shardKey(attackSpec(s)), nil)
					c.mu.Unlock()
					if owner == name {
						seeds = append(seeds, s)
						break
					}
					if s > 100000 {
						b.Fatalf("no seed hashes to %s", name)
					}
				}
			}

			// Warm every shard's victim cache so the measured region is
			// programming + attack, not one-time synthesis.
			var warm []string
			for _, s := range seeds {
				st, err := c.Submit(attackSpec(s))
				if err != nil {
					b.Fatal(err)
				}
				warm = append(warm, st.ID)
			}
			for _, id := range warm {
				ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
				if _, err := c.Wait(ctx, id); err != nil {
					cancel()
					b.Fatal(err)
				}
				cancel()
			}

			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			errs := make(chan error, b.N)
			ids := make([]string, b.N)
			for i := 0; i < b.N; i++ {
				st, err := c.Submit(attackSpec(seeds[i%len(seeds)]))
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = st.ID
			}
			for _, id := range ids {
				wg.Add(1)
				go func(id string) {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
					defer cancel()
					st, err := c.Wait(ctx, id)
					if err != nil {
						errs <- err
						return
					}
					if st.State != service.StateDone {
						errs <- fmt.Errorf("%s finished %s: %s", id, st.State, st.Error)
					}
				}(id)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "jobs/sec")
		})
	}
}
