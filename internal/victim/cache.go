package victim

import (
	"sync"

	"snowbma/internal/bitstream"
	"snowbma/internal/device"
	"snowbma/internal/obs"
	"snowbma/internal/snow3g"
)

// DefaultCacheSize is the entry cap a zero-configured Cache uses.
const DefaultCacheSize = 16

// cacheBudget bounds the bytes a Cache keeps: images plus their
// compiled configurations. A seed-design entry holds about 0.2 MB, so
// the entry cap binds first; padded designs (up to 2^17 frames, ~53 MB
// an image and as much again compiled) hit this bound after a couple.
const cacheBudget = 256 << 20

// cacheKey is the comparable identity of a build: the normalized config
// with the encryption keys flattened out of their pointer.
type cacheKey struct {
	key             snow3g.Key
	protected       bool
	autoProtectBits int
	padFrames       int
	seed            int64
	encrypted       bool
	kE              [bitstream.KeySize]byte
	kA              [bitstream.KeySize]byte
}

func keyOf(cfg Config) cacheKey {
	k := cacheKey{
		key:             cfg.Key,
		protected:       cfg.Protected,
		autoProtectBits: cfg.AutoProtectBits,
		padFrames:       cfg.PadFrames,
		seed:            cfg.Seed,
	}
	if cfg.Encrypt != nil {
		k.encrypted = true
		k.kE = cfg.Encrypt.KE
		k.kA = cfg.Encrypt.KA
	}
	return k
}

// entry is one cached synthesis: the assembled (possibly sealed) image,
// its compiled configuration and the synthesis metadata. once gates the
// build so concurrent first requests for the same design synthesize and
// compile exactly once. img/compiled/meta/err are written inside
// once.Do and safe to read only after it returns; failed and bytes are
// the mutex-guarded facts eviction reads (evictLocked runs under c.mu
// with no happens-before edge to the build goroutine).
type entry struct {
	once     sync.Once
	img      []byte
	compiled *device.Compiled
	meta     meta
	err      error
	failed   bool  // guarded by Cache.mu
	bytes    int   // guarded by Cache.mu; 0 until the build is accounted
	lastUse  int64 // tick of the most recent hit, for LRU eviction
}

// Cache memoizes victim synthesis and compilation by Config. Every
// Build hit programs a fresh device from the cached image, so callers
// own their victim outright; only immutable data is shared — the image
// bytes (FPGA.ProgramCompiled copies them into flash) and the compiled
// configuration, which the fresh device installs without recompiling
// once its Load has checked the image and found the same frame bytes.
// Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*entry
	max     int
	budget  int // byte bound over accounted entries (cacheBudget)
	bytes   int // bytes held by accounted entries
	tick    int64
	// Tel optionally mirrors hit/miss/eviction counts into a metrics
	// registry (victim.cache.*). Nil-safe.
	Tel *obs.Telemetry

	hits, misses, evictions int
}

// NewCache creates a cache holding at most max synthesized designs
// (≤ 0 selects DefaultCacheSize) and at most cacheBudget bytes of
// images and compiled configurations, though always the newest entry.
// Eviction is least-recently-used.
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &Cache{entries: make(map[cacheKey]*entry), max: max, budget: cacheBudget}
}

// Stats reports the cache's hit/miss/eviction counts.
func (c *Cache) Stats() (hits, misses, evictions int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// Len reports how many synthesized designs the cache currently holds.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Build returns a freshly programmed victim for cfg, synthesizing and
// compiling the design only if no cache entry exists. Failed builds are
// cached too (an unbuildable config stays unbuildable), but do not
// count against the caps for long: they are preferred for eviction.
func (c *Cache) Build(cfg Config) (*Victim, error) {
	cfg = cfg.normalized()
	k := keyOf(cfg)

	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		e = &entry{}
		c.entries[k] = e
		c.evictLocked(e)
		c.misses++
		c.Tel.Counter("victim.cache.misses").Inc()
	} else {
		c.hits++
		c.Tel.Counter("victim.cache.hits").Inc()
	}
	c.tick++
	e.lastUse = c.tick
	c.mu.Unlock()

	// The first caller programs its victim while building the entry:
	// that Load compiles the configuration the entry then keeps.
	var first *Victim
	e.once.Do(func() {
		e.img, e.meta, e.err = synthesize(cfg)
		if e.err == nil {
			first, e.err = program(cfg, e.img, e.meta, nil)
		}
		if e.err == nil {
			e.compiled = first.Device.Compiled()
		}
	})
	c.mu.Lock()
	if e.err != nil {
		e.failed = true
	} else if e.bytes == 0 && c.entries[k] == e {
		e.bytes = len(e.img) + e.compiled.Bytes()
		c.bytes += e.bytes
		c.evictLocked(e)
	}
	c.mu.Unlock()
	if e.err != nil {
		return nil, e.err
	}
	if first != nil {
		return first, nil
	}
	return program(cfg, e.img, e.meta, e.compiled)
}

// evictLocked drops entries until the cache is within its entry cap and
// byte budget, never dropping keep (the entry just added or built).
// Failed builds go first, then the least recently used design. Called
// with c.mu held.
func (c *Cache) evictLocked(keep *entry) {
	for len(c.entries) > c.max || c.bytes > c.budget {
		var victim cacheKey
		var oldest int64 = -1
		for k, e := range c.entries {
			if e == keep {
				continue
			}
			if e.failed {
				victim, oldest = k, 0
				break
			}
			if oldest < 0 || e.lastUse < oldest {
				victim, oldest = k, e.lastUse
			}
		}
		if oldest < 0 {
			return // only keep is left
		}
		c.bytes -= c.entries[victim].bytes
		delete(c.entries, victim)
		c.evictions++
		c.Tel.Counter("victim.cache.evictions").Inc()
	}
}
