package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

func TestParseStat(t *testing.T) {
	// The command name may contain spaces and parentheses.
	line := "4242 (e2e (b) c) S 1 4242 4242 0 -1 4194560 1200 0 0 0 731 58 0 0 20 0 9 0 123 456 789\n"
	got, err := parseStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got != (cpuTimes{User: 731, Sys: 58}) {
		t.Errorf("got %+v", got)
	}
	if _, err := parseStat([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("short line parsed")
	}
	self, err := readCPU("self")
	if err != nil || self.User < 0 || self.Sys < 0 {
		t.Errorf("readCPU(self) = %+v, %v", self, err)
	}
	if got := ticksToMicros(3); got != 30000 {
		t.Errorf("3 ticks = %v us", got)
	}
}

func TestParseStatusField(t *testing.T) {
	status := "Name:\tmetadns\nThreads:\t7\nVmHWM:\t   45104 kB\nVmRSS:\t   40000 kB\n"
	for key, want := range map[string]int64{"VmHWM": 45104, "Threads": 7} {
		got, err := parseStatusField([]byte(status), key)
		if err != nil || got != want {
			t.Errorf("%s = %d, %v; want %d", key, got, err, want)
		}
	}
	if _, err := parseStatusField([]byte(status), "VmPeak"); err == nil {
		t.Error("missing field found")
	}
}

func TestParseSNMP(t *testing.T) {
	snmp := "Tcp: RtoAlgorithm ActiveOpens PassiveOpens\nTcp: 1 461 460\n" +
		"Udp: InDatagrams NoPorts InErrors RcvbufErrors SndbufErrors\nUdp: 1000 2 3 4 5\n"
	got, err := parseSNMP([]byte(snmp))
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]int64{"Tcp.ActiveOpens": 461, "Udp.RcvbufErrors": 4, "Udp.SndbufErrors": 5} {
		if got[k] != want {
			t.Errorf("%s = %d, want %d", k, got[k], want)
		}
	}
	if _, err := parseSNMP([]byte("Udp: A B\nTcp: 1 2\n")); err == nil {
		t.Error("mismatched section names parsed")
	}
	if _, err := parseSNMP([]byte("Udp: A B\nUdp: 1\n")); err == nil {
		t.Error("short value line parsed")
	}
	if _, err := readSNMP(); err != nil {
		t.Errorf("reading this host's counters: %v", err)
	}
}

func TestParseCPUList(t *testing.T) {
	got, err := parseCPUList("0-2,5,7-8\n")
	if err != nil || !reflect.DeepEqual(got, []int{0, 1, 2, 5, 7, 8}) {
		t.Errorf("got %v, %v", got, err)
	}
	if s := cpuListString(got); s != "0,1,2,5,7,8" {
		t.Errorf("rendered %q", s)
	}
	for _, bad := range []string{"", "a", "3-1", "1-x"} {
		if _, err := parseCPUList(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestCountDir(t *testing.T) {
	dir := t.TempDir()
	for i := range 5000 {
		if err := os.WriteFile(filepath.Join(dir, strconv.Itoa(i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := countDir(dir); err != nil || n != 5000 {
		t.Errorf("countDir = %d, %v", n, err)
	}
}

func TestParseServerMetrics(t *testing.T) {
	doc := `{"metrics": [
	  {"name": "metadns_queries_total", "labels": "transport=\"udp\"", "kind": "counter", "value": 900},
	  {"name": "metadns_queries_total", "labels": "transport=\"tcp\"", "kind": "counter", "value": 100},
	  {"name": "metadns_queries_total", "labels": "transport=\"tls\"", "kind": "counter"},
	  {"name": "metadns_cache_hits_total", "kind": "counter", "value": 250},
	  {"name": "metadns_cache_misses_total", "kind": "counter", "value": 750},
	  {"name": "metadns_respond_latency_ns", "kind": "histogram", "count": 8, "p50": 9040.5}
	]}`
	got, err := parseServerMetrics([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := serverObs{QueriesUDP: 900, QueriesTCP: 100, CacheHits: 250, CacheMisses: 750, ServiceP50ns: 9040.5}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if _, err := parseServerMetrics([]byte(`{"metrics": []}`)); err == nil {
		t.Error("empty document parsed")
	}
}

func TestProbeScaling(t *testing.T) {
	me := &measurement{probeSetupNs: 1.5 * probeRefNs, probeReplayNs: 2 * probeRefNs}
	// A server half at half the reference speed halves its CPU times.
	if got := me.serverSpeed(); got != 0.5 {
		t.Errorf("serverSpeed = %v, want 0.5", got)
	}
	if got := me.hostSpeed(); got != 1/1.5 {
		t.Errorf("hostSpeed = %v, want %v", got, 1/1.5)
	}
}

func TestMeanRound(t *testing.T) {
	p := &prober{child: &child{name: "probe"}, samples: []probeSample{
		{end: 5, ns: 100}, {end: 10, ns: 200}, {end: 15, ns: 400}, {end: 30, ns: 800},
	}}
	// Rounds ending at 10 and 30 fall inside; 5 and 15 do not.
	got, err := p.meanRound([]window{{8, 12}, {20, 30}})
	if err != nil || got != 500 {
		t.Errorf("meanRound = %v, %v; want 500", got, err)
	}
	if _, err := p.meanRound([]window{{16, 19}}); err == nil {
		t.Error("empty window gave a mean")
	}
}
