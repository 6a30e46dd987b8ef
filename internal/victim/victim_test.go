package victim

import (
	"sync"
	"testing"

	"snowbma/internal/snow3g"
)

var testKey = snow3g.Key{0x2BD6459F, 0x82C5B300, 0x952C4910, 0x4881FF48}

func TestBuildMatchesCachedBuild(t *testing.T) {
	cfg := Config{Key: testKey, Seed: 77}
	direct, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(4)
	cached, err := c.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(direct.Image) != string(cached.Image) {
		t.Fatal("cached build produced a different image")
	}
	if direct.LUTs != cached.LUTs || direct.Depth != cached.Depth ||
		direct.CriticalPathNs != cached.CriticalPathNs ||
		direct.CriticalEndpoint != cached.CriticalEndpoint {
		t.Fatalf("metadata drift: direct %+v vs cached %+v", direct, cached)
	}
}

func TestCacheHitSkipsSynthesisAndIsolatesDevices(t *testing.T) {
	c := NewCache(4)
	cfg := Config{Key: testKey, Seed: 9}
	a, err := c.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	if a.Device == b.Device {
		t.Fatal("cache handed out a shared device")
	}
	if a.Device.Compiled() == nil || a.Device.Compiled() != b.Device.Compiled() {
		t.Fatal("cache hit recompiled instead of sharing the entry's Compiled")
	}
	// Seed 0 must hit the same entry as the explicit default seed.
	if _, err := c.Build(Config{Key: testKey, Seed: DefaultSeed}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build(Config{Key: testKey}); err != nil {
		t.Fatal(err)
	}
	hits2, misses2, _ := c.Stats()
	if misses2 != 2 || hits2 != 2 {
		t.Fatalf("after seed-normalization pair: hits=%d misses=%d, want 2/2", hits2, misses2)
	}
}

func TestCacheConcurrentFirstBuildSynthesizesOnce(t *testing.T) {
	c := NewCache(4)
	cfg := Config{Key: testKey, Seed: 5}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Build(cfg)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, misses, _ := c.Stats(); misses != 1 {
		t.Fatalf("concurrent first builds recorded %d misses, want 1 (one synthesis)", misses)
	}
}

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewCache(2)
	for seed := int64(1); seed <= 2; seed++ {
		if _, err := c.Build(Config{Key: testKey, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch seed 1 so seed 2 is the LRU entry, then insert a third.
	if _, err := c.Build(Config{Key: testKey, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build(Config{Key: testKey, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, ev := c.Stats(); ev != 1 {
		t.Fatalf("evictions=%d, want 1", ev)
	}
	// Seed 1 must still be cached; seed 2 was evicted.
	if _, err := c.Build(Config{Key: testKey, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := c.Stats()
	if hits != 2 || misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 2/3", hits, misses)
	}
}

// TestCacheEvictsByBytes: the byte budget bounds what a cache keeps
// below its entry cap — images plus compiled configurations, so a few
// heavily padded designs cannot pin gigabytes — and the newest entry
// stays even when it alone is over budget. The budget is lowered here
// instead of building images large enough to reach the real one.
func TestCacheEvictsByBytes(t *testing.T) {
	c := NewCache(8)
	build := func(seed int64) *Victim {
		t.Helper()
		v, err := c.Build(Config{Key: testKey, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a := build(71)
	one := c.bytes
	if want := len(a.Image) + a.Device.Compiled().Bytes(); one != want || one <= len(a.Image) {
		t.Fatalf("cache holds %d bytes, want image + compiled = %d", one, want)
	}
	c.budget = one + one/2 // room for one entry, not two
	b := build(72)
	if _, _, ev := c.Stats(); c.Len() != 1 || ev != 1 {
		t.Fatalf("len=%d evictions=%d, want 1/1 (seed 71 evicted for bytes)", c.Len(), ev)
	}
	if got, want := c.bytes, len(b.Image)+b.Device.Compiled().Bytes(); got != want {
		t.Fatalf("cache holds %d bytes after eviction, want %d", got, want)
	}
	c.budget = 1 // below any entry: only the newest survives
	build(73)
	build(73) // a hit on the newest entry evicts nothing
	hits, misses, ev := c.Stats()
	if c.Len() != 1 || hits != 1 || misses != 3 || ev != 2 {
		t.Fatalf("len=%d hits=%d misses=%d evictions=%d, want 1/1/3/2", c.Len(), hits, misses, ev)
	}
	build(71) // evicted earlier: synthesized again
	if _, misses, _ := c.Stats(); misses != 4 {
		t.Fatalf("misses=%d, want 4 (seed 71 was evicted)", misses)
	}
}

func TestCacheFailedBuildsCachedAndEvictedFirst(t *testing.T) {
	c := NewCache(2)
	// An unsatisfiable countermeasure budget fails synthesis.
	bad := Config{Key: testKey, AutoProtectBits: 1 << 20, Seed: 40}
	if _, err := c.Build(bad); err == nil {
		t.Fatal("build with an unsatisfiable countermeasure must fail")
	}
	if _, err := c.Build(bad); err == nil {
		t.Fatal("cached failure must keep failing")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1 (failure memoized)", hits, misses)
	}
	// Filling the cache evicts the failed entry before any good one.
	for seed := int64(41); seed <= 42; seed++ {
		if _, err := c.Build(Config{Key: testKey, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ev := c.Stats(); ev != 1 {
		t.Fatalf("evictions=%d, want 1 (the failed entry)", ev)
	}
	for seed := int64(41); seed <= 42; seed++ {
		if _, err := c.Build(Config{Key: testKey, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _, _ := c.Stats(); hits != 3 {
		t.Fatalf("hits=%d, want 3 (both good entries survived the eviction)", hits)
	}
}

// Failed builds publish their status while concurrent evictions read
// it; this only proves anything under -race (the seed's eviction
// heuristic read the once-written err field with no happens-before
// edge).
func TestCacheConcurrentFailuresAndEvictions(t *testing.T) {
	c := NewCache(1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				seed := int64(60 + (g+i)%3)
				_, _ = c.Build(Config{Key: testKey, Seed: seed})
				_, _ = c.Build(Config{Key: testKey, Seed: seed, AutoProtectBits: 1 << 20})
			}
		}(g)
	}
	wg.Wait()
}

func TestDeriveKeysDeterministic(t *testing.T) {
	a, b := DeriveKeys(42), DeriveKeys(42)
	if a != b {
		t.Fatal("DeriveKeys not deterministic")
	}
	if a == DeriveKeys(43) {
		t.Fatal("different seeds derived identical keys")
	}
	v, err := Build(Config{Key: testKey, Encrypt: &Keys{KE: a.KE, KA: a.KA}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Device.SideChannelKey() != a.KE {
		t.Fatal("encrypted build did not install K_E into the device eFuses")
	}
}
