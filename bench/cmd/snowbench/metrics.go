package main

// metric is one reported number: its name, unit, which direction is
// better and, for end-to-end metrics, the share of the parent's median
// by which it may worsen before a change counts as a regression.
// BENCHMARK.json lists the same metrics; a test keeps the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the numbers a user of the system sees, reported by every
// untraced run. Each workload defines its main op and its probe op:
//
//	workload       main op                        probe op
//	cold_attack    one fresh `attack` process     one fresh `findlut` process
//	warm_service   one attack job                 one findlut job
//	fleet_attack   one attack job via the fleet   one findlut job via the fleet
//	corpus_census  one design add in a full pass  one re-add of a changed design
var endToEnd = []metric{
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"probe_ms_p50", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.2},
}

// layers are the layers a traced op's time is split between. Each is
// reported as its share of the traced ops' total time, so the shares of
// one workload add up to 100 with bench.unattributed_pct. A layer a
// workload never enters reads 0 there.
var layers = []string{
	"process.start",  // fork/exec, runtime and package init of a fresh process
	"process.exit",   // result hand-off, exit and reaping of that process
	"bitstream.read", // reading the image file a findlut process scans
	"hdl.build",      // RTL generation
	"mapper.map",     // technology mapping
	"mapper.pack",    // LUT packing
	"mapper.timing",  // timing report of the mapped design
	"bitstream.assemble",
	"device.program",  // fresh device configured from the image
	"core.new_attack", // flash probe, CRC disable, packet parse
	"core.scan",       // FINDLUT scanner: catalogue compile and walk
	"core.verify_zpath",
	"core.collect_feedback",
	"core.make_key_independent",
	"core.identify_vpairs",
	"core.extract_key",
	"device.restore", // attack epilogue: original image reloaded, report copied
	"service.submit", // Engine.Submit, including the queued record
	"service.queue_wait",
	"service.run",        // engine bookkeeping around a running job body
	"service.job",        // job body outside the scanner and attack phases
	"service.finish",     // terminal record and wake-up of the waiting caller
	"store.append",       // job store appends, inside whichever layer made them
	"fleet.dispatch",     // Coordinator.Submit: routing and the POST to a worker
	"fleet.finalize_lag", // worker finished → coordinator noticed → caller woke
	"corpus.add",         // Census.Add outside the scanner and LUT extraction
	"bitstream.extract_luts",
}

// perLayer are the traced run's metrics: the layer shares, then counts
// and ratios measured at the layers' boundaries.
var perLayer = func() []metric {
	var out []metric
	for _, l := range layers {
		out = append(out, metric{l + "_pct", "%", "lower", 0})
	}
	return append(out,
		metric{"bench.unattributed_pct", "%", "lower", 0},
		metric{"bench.trace_overhead_pct", "%", "lower", 0},
		metric{"go.alloc_mb_per_op", "MB", "lower", 0},
		metric{"core.loads", "count", "lower", 0},
		metric{"core.sweep_passes", "count", "lower", 0},
		metric{"core.lane_utilisation", "ratio", "higher", 0},
		metric{"core.scan_catalogue_misses", "count", "lower", 0},
		metric{"core.scan_deep_compares", "count", "lower", 0},
		metric{"victim.cache_hit_ratio", "ratio", "higher", 0},
		metric{"store.appends_per_job", "count", "lower", 0},
		metric{"fleet.worker_requests_per_job", "count", "lower", 0},
		metric{"fleet.idle_requests_per_s", "1/s", "lower", 0},
		metric{"corpus.dedup_rate", "ratio", "higher", 0},
		metric{"corpus.frames_scanned_ratio", "ratio", "lower", 0},
		metric{"corpus.memo_entries", "count", "lower", 0},
	)
}()
