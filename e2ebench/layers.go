package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// serverObs is what a traced run reads from metadns's /metrics.json.
type serverObs struct {
	QueriesUDP, QueriesTCP int64
	CacheHits, CacheMisses int64
	ServiceP50ns           float64
}

// parseServerMetrics extracts serverObs from a /metrics.json document.
func parseServerMetrics(data []byte) (serverObs, error) {
	var doc struct {
		Metrics []struct {
			Name   string  `json:"name"`
			Labels string  `json:"labels"`
			Value  int64   `json:"value"`
			P50    float64 `json:"p50"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return serverObs{}, fmt.Errorf("metrics.json: %w", err)
	}
	var o serverObs
	seen := 0
	for _, m := range doc.Metrics {
		switch {
		case m.Name == "metadns_queries_total" && m.Labels == `transport="udp"`:
			o.QueriesUDP = m.Value
		case m.Name == "metadns_queries_total" && m.Labels == `transport="tcp"`:
			o.QueriesTCP = m.Value
		case m.Name == "metadns_cache_hits_total":
			o.CacheHits = m.Value
		case m.Name == "metadns_cache_misses_total":
			o.CacheMisses = m.Value
		case m.Name == "metadns_respond_latency_ns":
			o.ServiceP50ns = m.P50
		default:
			continue
		}
		seen++
	}
	if seen != 5 {
		return o, fmt.Errorf("metrics.json: found %d of the 5 server series", seen)
	}
	return o, nil
}

func scrapeServer(addr string) (serverObs, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics.json")
	if err != nil {
		return serverObs{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return serverObs{}, err
	}
	return parseServerMetrics(data)
}

// perLayer returns the traced run's per-layer metrics.
func (me *measurement) perLayer() []metric {
	r := &me.res
	st := r.Stats
	answered := float64(me.m.Answered)
	cli := r.After.Client.sub(r.Before.Client)
	srv := r.After.Server.sub(r.Before.Server)
	received := float64(me.srvObs.QueriesUDP + me.srvObs.QueriesTCP)
	snmp := func(k string) float64 { return float64(r.After.SNMP[k] - r.Before.SNMP[k]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return []metric{
		{"trace.decode_ns_per_entry", "ns", me.decode},
		{"replay.sched_err_p99_us", "us", quantile(me.schedUs, 0.99)},
		{"replay.send_batch_mean", "count", r.SendBatchMean},
		{"replay.sockets_opened", "count", float64(st.ConnsOpened)},
		{"replay.dup_discards", "count", float64(me.ledger.DupDiscards)},
		{"replay.unanswered", "count", float64(me.ledger.Unanswered)},
		{"replay.send_errors", "count", float64(me.ledger.SendErrors)},
		{"replay.rtt_p50_us", "us", r.RTTp50 / 1e3},
		{"replay.rtt_p99_us", "us", r.RTTp99 / 1e3},
		{"replay.response_before_send_frac", "ratio", ratio(float64(me.m.RespBeforeSend), answered)},
		{"replay.stream_retries", "count", float64(st.Retries)},
		{"replay.idle_closed", "count", float64(st.IdleClosed)},
		{"replay.latency_p999_us", "us", quantile(me.latUs, 0.999)},
		{"replay.latency_samples", "count", float64(len(me.latUs))},
		{"client.fds_peak", "count", float64(me.peaks.ClientFDs)},
		{"client.goroutines_peak", "count", float64(r.GoroutinesPeak)},
		{"client.user_us_per_answer", "us", ticksToMicros(cli.User) / answered},
		{"client.sys_us_per_answer", "us", ticksToMicros(cli.Sys) / answered},
		{"client.allocs_per_answer", "count", float64(r.After.Mallocs-r.Before.Mallocs) / answered},
		{"client.gc_cycles", "count", float64(r.After.NumGC - r.Before.NumGC)},
		{"kernel.udp_rcvbuf_errors", "count", snmp("Udp.RcvbufErrors")},
		{"kernel.udp_sndbuf_errors", "count", snmp("Udp.SndbufErrors")},
		{"kernel.tcp_active_opens", "count", snmp("Tcp.ActiveOpens")},
		{"server.queries_received.udp", "count", float64(me.srvObs.QueriesUDP)},
		{"server.queries_received.tcp", "count", float64(me.srvObs.QueriesTCP)},
		{"server.receive_loss", "count", float64(me.ledger.Sent) - received},
		{"server.cache_hit_frac", "ratio", ratio(float64(me.srvObs.CacheHits), float64(me.srvObs.CacheHits+me.srvObs.CacheMisses))},
		{"server.user_us_per_query", "us", ratio(ticksToMicros(srv.User), received)},
		{"server.sys_us_per_query", "us", ratio(ticksToMicros(srv.Sys), received)},
		{"server.service_p50_us", "us", me.srvObs.ServiceP50ns / 1e3},
		{"server.tcp_conns_peak", "count", float64(me.peaks.ServerFDs)},
		{"server.threads_peak", "count", float64(me.peaks.ServerThreads)},
		{"server.respond_ns_per_query", "ns", me.respond},
		{"setup.trace_gen_s", "s", me.setupMeds.gen},
		{"setup.zone_load_s", "s", me.setupMeds.zone},
		{"setup.server_ready_s", "s", me.setupMeds.server},
		{"setup.client_ready_s", "s", me.setupMeds.client},
		{"host.probe_setup_ns", "ns", me.probeSetupNs},
		{"host.probe_replay_ns", "ns", me.probeReplayNs},
	}
}

// writeSpans writes the traced run's spans as tab-separated lines of
// trace id, span id, parent span id (0 for a root), name, start and end
// in ns since the replay's sync point, and an entry count for reader
// spans. Each query is a trace "q<index>" with a root span from due time
// to response (or to send, if unanswered) and two children: "replay.send"
// (due to OnSend, the pacing wheel and send path) and "network+server"
// (OnSend to OnResponse). Each block-reader call is a trace "b<index>"
// with one "trace.next_batch" span: the hand-off of decoded entries to
// the engine, including any wait for a block still being decoded.
func (me *measurement) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	r := &me.res
	base := r.RealStart
	var b []byte
	line := func(tr string, id, parent int, name string, start, end int64, n int) {
		b = append(b[:0], tr...)
		b = append(b, '\t')
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, '\t')
		b = strconv.AppendInt(b, int64(parent), 10)
		b = append(b, '\t')
		b = append(b, name...)
		b = append(b, '\t')
		b = strconv.AppendInt(b, start-base, 10)
		b = append(b, '\t')
		b = strconv.AppendInt(b, end-base, 10)
		b = append(b, '\t')
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, '\n')
		w.Write(b) // errors surface at Flush
	}
	fmt.Fprintln(w, "trace\tspan\tparent\tname\tstart_ns\tend_ns\tentries")
	for i, d := range r.BatchSpans {
		line("b"+strconv.Itoa(i), 1, 0, "trace.next_batch", d.Start, d.End, d.N)
	}
	for q := range me.entries {
		si := me.m.SendOf[q]
		if si < 0 {
			continue
		}
		tr := "q" + strconv.Itoa(q)
		due, sent := me.due[q], r.Sends[si].At
		end := sent
		name := "query.unanswered"
		if ri := me.m.RespOf[q]; ri >= 0 {
			end, name = r.Resps[ri].At, "query"
		}
		line(tr, 1, 0, name, due, end, 1)
		line(tr, 2, 1, "replay.send", due, sent, 1)
		if name == "query" {
			line(tr, 3, 1, "network+server", sent, end, 1)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
