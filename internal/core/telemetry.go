package core

import (
	"snowbma/internal/device"
	"snowbma/internal/obs"
)

// Telemetry integration: the attack carries an optional *obs.Telemetry
// whose span tracer wraps every phase and whose metrics registry backs
// the ScanStats/BatchStats accumulation. The registry is a mirror, not
// a replacement, of the report structs — the structs stay the unit of
// byte-identity (Report.Loads) and the differential
// suite in telemetry_test.go pins that the registry reconstructions
// match them exactly.
//
// Metric taxonomy (see DESIGN.md "Observability"):
//
//	attack.loads                modeled hardware reconfigurations (live counter)
//	scan.*                      ScanStats mirror (Set on sync)
//	batch.*                     BatchStats mirror (Set on sync)
//	batch.lanes_per_pass        histogram, observed per fabric pass
//	batch.lane_utilisation      gauge, Lanes / (Passes · Width)
//	device.*                    FPGA events (live counters, device package)
//	core.catalogue.*            process-wide catalogue cache (obs.Default)
//
// When a live event bus is attached (obs.Telemetry.AttachBus, done by
// the service layer per job), the attack additionally publishes
// progress events: "sweep.chunk" after each evaluated sweep chunk
// (value = candidates done, attrs total/lo/hi/fallbacks) and
// "attack.verify_zpath" / "attack.resolve_beta" elimination summaries
// (attrs candidates/confirmed-or-survivors/eliminated).

// SetTelemetry attaches a telemetry handle to the attack: phase spans,
// the metrics registry, and (when tel.Log is set) the printf logger
// replace the attack's current sinks. It also forwards the handle to
// the victim device (when it supports it). A nil tel detaches
// everything except the logger.
func (a *Attack) SetTelemetry(tel *obs.Telemetry) {
	a.tel = tel
	if tel != nil && tel.Log != nil {
		a.log = tel.Log
	}
	if d, ok := a.dev.(interface{ SetTelemetry(*obs.Telemetry) }); ok {
		d.SetTelemetry(tel)
	}
}

// countLoad is the single site that accounts one modeled hardware
// reconfiguration, keeping Report.Loads and the attack.loads counter
// equal by construction.
func (a *Attack) countLoad() {
	a.rep.Loads++
	a.tel.Counter("attack.loads").Inc()
}

// publishStats mirrors the accumulated ScanStats/BatchStats into the
// registry. Called at phase boundaries and from the Run epilogues; the
// mirrored values are Set (absolute), so repeated publication is
// idempotent.
func (a *Attack) publishStats() {
	// The compiled-program counters live on the victim's simulator;
	// snapshot them into the report whenever stats are synced.
	if cs, ok := a.dev.(interface{ CompileStats() device.CompileStats }); ok {
		a.rep.Fabric = cs.CompileStats()
	}
	if a.tel == nil || a.tel.Metrics == nil {
		return
	}
	publishScanStats(a.tel.Metrics, a.rep.Scan)
	publishBatchStats(a.tel.Metrics, a.rep.Batch)
}

func publishScanStats(m *obs.Registry, s ScanStats) {
	m.Counter("scan.functions").Set(int64(s.Functions))
	m.Counter("scan.dual_targets").Set(int64(s.DualTargets))
	m.Counter("scan.candidates_compiled").Set(int64(s.CandidatesCompiled))
	m.Counter("scan.catalogue_hits").Set(int64(s.CatalogueHits))
	m.Counter("scan.catalogue_misses").Set(int64(s.CatalogueMisses))
	m.Counter("scan.bytes").Set(s.BytesScanned)
	m.Counter("scan.passes").Set(s.Passes)
	m.Counter("scan.anchor_probes").Set(s.AnchorProbes)
	m.Counter("scan.anchor_hits").Set(s.AnchorHits)
	m.Counter("scan.deep_compares").Set(s.DeepCompares)
	m.Counter("scan.dual_probes").Set(s.DualProbes)
	m.Counter("scan.dual_decodes").Set(s.DualDecodes)
	m.Gauge("scan.workers").Set(float64(s.Workers))
	m.Counter("scan.compile_ns").Set(int64(s.CompileTime))
	m.Counter("scan.walk_ns").Set(int64(s.ScanTime))
}

func publishBatchStats(m *obs.Registry, s BatchStats) {
	m.Gauge("batch.width").Set(float64(s.Width))
	m.Counter("batch.passes").Set(int64(s.Passes))
	m.Counter("batch.lane_words").Set(int64(s.LaneWords))
	m.Counter("batch.lanes").Set(int64(s.Lanes))
	m.Counter("batch.fallbacks").Set(int64(s.Fallbacks))
	m.Counter("batch.patched_frames").Set(int64(s.PatchedFrames))
	util := 0.0
	if s.Passes > 0 && s.Width > 0 {
		util = float64(s.Lanes) / float64(s.Passes*s.Width)
	}
	m.Gauge("batch.lane_utilisation").Set(util)
}

// Clone returns a deep copy of the report: mutating the copy (or its
// slices) cannot corrupt a live attack. Match.Perm is cloned too, even
// though the scanner treats it as read-only shared storage.
func (r *Report) Clone() *Report {
	c := *r
	c.CandidateTable = append([]CandidateCount(nil), r.CandidateTable...)
	c.CleanKeystream = append([]uint32(nil), r.CleanKeystream...)
	c.KeyIndependent = append([]uint32(nil), r.KeyIndependent...)
	c.FaultyFinal = append([]uint32(nil), r.FaultyFinal...)
	c.LUT1 = append([]ConfirmedLUT(nil), r.LUT1...)
	for i := range c.LUT1 {
		c.LUT1[i].Match = c.LUT1[i].Match.clone()
	}
	c.LUT2 = cloneMatches(r.LUT2)
	c.LUT3 = cloneMatches(r.LUT3)
	return &c
}

func (m Match) clone() Match {
	m.Perm = append([]int(nil), m.Perm...)
	return m
}

func cloneMatches(ms []Match) []Match {
	if ms == nil {
		return nil
	}
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = m.clone()
	}
	return out
}
