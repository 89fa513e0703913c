package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/hsfast"
	"repro/internal/tls12"
)

// layerBase is the program's own counters at the start of the window.
type layerBase struct {
	accepted    uint64
	mb          core.MiddleboxStats
	relay       core.RelayPoolStats
	relayAt     time.Time
	transitions int64
	keyShares   hsfast.KeySharePoolStats
	bufPool     tls12.RecordBufPoolStats
	ioCalls     uint64
}

func keyShareTotals(d *deployment) hsfast.KeySharePoolStats {
	var s hsfast.KeySharePoolStats
	for _, p := range d.keyShares {
		st := p.Stats()
		s.Hits += st.Hits
		s.Misses += st.Misses
	}
	return s
}

func takeLayerBase(d *deployment) *layerBase {
	return &layerBase{
		accepted:    d.mbHost.Snapshot().Accepted + d.originHost.Snapshot().Accepted,
		mb:          d.mb.Stats(),
		relay:       d.relayPool.Stats(),
		relayAt:     time.Now(),
		transitions: d.encl.Transitions(),
		keyShares:   keyShareTotals(d),
		bufPool:     d.mbPool.Stats(),
		ioCalls:     procSelfIOCalls(),
	}
}

// relayBusy is the relay pool's cumulative worker busy time, recovered
// from its since-start utilisation.
func relayBusy(d *deployment, st core.RelayPoolStats, at time.Time) float64 {
	return st.Utilization * at.Sub(d.relayStart).Seconds() * float64(st.Workers)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics computes the per-layer metrics of a traced window. The
// cpu.* buckets split the window's process CPU (e2e cpu_us_per_op) by
// the CPU profile's shares, so they sum to it.
func layerMetrics(d *deployment, tr *tracer, base *layerBase, prof []byte, e2e map[string]metric,
	completed int64) (map[string]metric, error) {

	ops := float64(completed)
	perOp := func(x float64) float64 { return ratio(x, ops) }
	now := time.Now()
	mb := d.mb.Stats()
	relay := d.relayPool.Stats()
	ks := keyShareTotals(d)
	pool := d.mbPool.Stats()
	accepted := d.mbHost.Snapshot().Accepted + d.originHost.Snapshot().Accepted

	m := map[string]metric{
		"sessionhost.admit_us_p50":        {tr.p50us(spanAdmit), "us"},
		"sessionhost.sessions_per_op":     {perOp(float64(accepted - base.accepted)), "1"},
		"core.dial_full_us_p50":           {tr.p50us(spanDialFull), "us"},
		"core.dial_resumed_us_p50":        {tr.p50us(spanDialResumed), "us"},
		"core.accept_us_p50":              {tr.p50us(spanAccept), "us"},
		"core.close_us_p50":               {tr.p50us(spanClose), "us"},
		"core.write_us_per_op":            {perOp(tr.totalUs(spanWrite)), "us"},
		"core.read_wait_us_per_op":        {perOp(tr.totalUs(spanRead)), "us"},
		"core.relay.records_per_op":       {perOp(float64(mb.RecordsRekeyed - base.mb.RecordsRekeyed)), "1"},
		"core.relay.worker_util":          {ratio(relayBusy(d, relay, now)-relayBusy(d, base.relay, base.relayAt), now.Sub(base.relayAt).Seconds()*float64(relay.Workers)), "1"},
		"core.relay.records_per_job":      {ratio(float64(relay.RecordsProcessed-base.relay.RecordsProcessed), float64(relay.JobsProcessed-base.relay.JobsProcessed)), "1"},
		"core.relay.window_stalls_per_op": {perOp(float64(relay.WindowStalls - base.relay.WindowStalls)), "1"},
		"core.relay.submit_stalls_per_op": {perOp(float64(relay.SubmitStalls - base.relay.SubmitStalls)), "1"},
		"core.relay.reseal_us_p50":        {us(relay.ResealP50), "us"},
		"enclave.transitions_per_op":      {perOp(float64(d.encl.Transitions() - base.transitions)), "1"},
		"enclave.endorse_hit_ratio":       {ratio(float64(tr.endorseHits.Load()), float64(tr.endorseLookups.Load())), "1"},
		"enclave.endorse_us_p50":          {tr.p50us(spanEndorse), "us"},
		"hsfast.keyshare_us_p50":          {tr.p50us(spanKeyShare), "us"},
		"hsfast.keyshare_hit_ratio":       {ratio(float64(ks.Hits-base.keyShares.Hits), float64(ks.Hits+ks.Misses-base.keyShares.Hits-base.keyShares.Misses)), "1"},
		"hsfast.chain_verify_us_p50":      {tr.p50us(spanChainVerify), "us"},
		"hsfast.chain_verify_hit_ratio":   {ratio(float64(tr.chainHits.Load()), float64(tr.chainLookups.Load())), "1"},
		"hsfast.ticket_opens_per_op":      {perOp(float64(tr.ticketOpens.Load())), "1"},
		"tls12.bufpool_hit_ratio":         {ratio(float64(pool.Hits-base.bufPool.Hits), float64(pool.Gets-base.bufPool.Gets)), "1"},
		"tcpx.syscalls_per_op":            e2e["syscalls_per_op"],
		"tcpx.reads_per_op":               {perOp(float64(tr.reads.Load())), "1"},
		"tcpx.writes_per_op":              {perOp(float64(tr.writes.Load())), "1"},
		"tcpx.writevs_per_op":             {perOp(float64(tr.writevs.Load())), "1"},
		"tcpx.wire_bytes_per_op":          {perOp(float64(tr.wireBytes.Load())), "B"},
		"mbapps.process_us_per_op":        {perOp(tr.totalUs(spanProcess)), "us"},
		"mbapps.process_calls_per_op":     {perOp(float64(tr.spanCount(spanProcess))), "1"},
		"trace.client_span_coverage":      {ratio(float64(tr.coveredNs.Load()), float64(tr.opNs.Load())), "1"},
		"trace.ops_per_s":                 e2e["ops_per_s"],
		"trace.goodput_gbps":              e2e["goodput_gbps"],
		"trace.latency_p50_us":            e2e["latency_p50_us"],
		"trace.latency_p90_us":            e2e["latency_p90_us"],
		"trace.heap_inuse_mib":            e2e["heap_inuse_mib"],
		"trace.cpu_us_per_op":             e2e["cpu_us_per_op"],
		"trace.process_cpus":              e2e["process_cpus"],
	}
	modules, stages, err := profileShares(prof)
	if err != nil {
		return nil, err
	}
	cpu := e2e["cpu_us_per_op"].Value
	for _, name := range cpuModules {
		m["cpu."+name+"_us_per_op"] = metric{cpu * modules[name], "us"}
	}
	for _, name := range cpuStages {
		m["cpu.stage."+name+"_us_per_op"] = metric{cpu * stages[name], "us"}
	}
	return m, nil
}
