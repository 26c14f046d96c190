package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"syscall"
	"time"

	"ldplayer/internal/trace"
)

const (
	// setupReps is how many times a run sets up from scratch; setup_s is
	// the median, and the last set-up is the one measured.
	setupReps = 3
	// ontimeLimit is the latency limit of ontime_frac, measured from each
	// query's scheduled time.
	ontimeLimit = 20 * time.Millisecond
	// matchSlack lets a response match a query due slightly after it
	// arrived: the wheel may release a query up to a tick early.
	matchSlack = int64(time.Millisecond)
	// replayTimeout bounds the client process beyond the trace length.
	replayTimeout = 90 * time.Second
)

// setupTimes is one set-up repetition, in seconds.
type setupTimes struct {
	gen, zone, server, client float64
}

func (s setupTimes) total() float64 { return s.gen + s.zone + s.server + s.client }

// measurement is one replay: its inputs, the client's logs and the
// analysis of both.
type measurement struct {
	wl      workload
	seed    int64
	entries []trace.Entry
	setups  []setupTimes
	res     clientResult
	srvObs  serverObs
	respond float64 // ns per query, the in-process respond ceiling
	decode  float64 // ns per entry, the in-process decode ceiling
	peaks   peaks

	// Analysis.
	due       []int64 // per query, unix ns
	m         matchResult
	ledger    ledger
	latUs     []float64 // matched latencies, ascending
	schedUs   []float64 // scheduling errors, ascending
	lastResp  int64
	verified  int
	setupMeds setupTimes

	// Host speed: the mean probe round over set-up, on both halves, and
	// over the replay, on the server half, in ns.
	probeSetupNs, probeReplayNs float64
}

// measure sets up setupReps times, replays once on the last set-up, and
// checks and analyses the result.
func measure(wl workload, o options, env envInfo, self string, traced bool) (*measurement, error) {
	me := &measurement{wl: wl, seed: o.seed}
	dir := filepath.Join(o.work, "run", wl.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "zones"), 0o755); err != nil {
		return nil, err
	}
	blk := filepath.Join(dir, "trace.blk")
	out := filepath.Join(dir, "result.gob")
	d := time.Duration(o.seconds) * time.Second

	var srv *server
	var cli *client
	defer func() {
		// Error paths: leave no process behind.
		if cli != nil {
			cli.kill()
		}
		if srv != nil {
			srv.kill()
		}
	}()
	cliProbe, err := startProber(self, env.clientCPUs)
	if err != nil {
		return nil, err
	}
	defer cliProbe.kill()
	srvProbe, err := startProber(self, env.serverCPUs)
	if err != nil {
		return nil, err
	}
	defer srvProbe.kill()

	var zoneFiles []zoneFile
	var firstSum [32]byte
	var setupWins []window
	for rep := 0; rep < setupReps; rep++ {
		var st setupTimes
		t := time.Now()
		repStart := t.UnixNano()
		r, zonesFn, err := wl.gen(o.seed, d)
		if err != nil {
			return nil, err
		}
		ents, err := drain(r)
		if err != nil {
			return nil, err
		}
		if len(ents) == 0 {
			return nil, fmt.Errorf("workload %s produced an empty trace", wl.name)
		}
		if err := writeBlock(blk, ents); err != nil {
			return nil, err
		}
		st.gen = time.Since(t).Seconds()

		t = time.Now()
		zs, err := zonesFn()
		if err != nil {
			return nil, err
		}
		zoneFiles = zoneFiles[:0]
		zoneArgs := make([]string, 0, len(zs))
		for i, origin := range sortedOrigins(zs) {
			p := filepath.Join(dir, "zones", strconv.Itoa(i)+".zone")
			if err := writeZone(p, zs[origin]); err != nil {
				return nil, err
			}
			zoneFiles = append(zoneFiles, zoneFile{origin, p})
			zoneArgs = append(zoneArgs, "-zone", zoneFlagName(origin)+"="+p)
		}
		st.zone = time.Since(t).Seconds()

		t = time.Now()
		if srv, err = startServer(o.metadns, env.serverCPUs, zoneArgs, traced); err != nil {
			return nil, err
		}
		st.server = time.Since(t).Seconds()

		t = time.Now()
		cli, err = startClient(self, env.clientCPUs,
			"-blk", blk, "-entries", strconv.Itoa(len(ents)),
			"-udp", srv.udp, "-tcp", srv.tcp, "-server-pid", strconv.Itoa(srv.pid()),
			"-out", out, "-traced="+strconv.FormatBool(traced))
		if err != nil {
			return nil, err
		}
		st.client = time.Since(t).Seconds()
		me.setups = append(me.setups, st)
		setupWins = append(setupWins, window{repStart, time.Now().UnixNano()})

		// The same seed must give the same inputs.
		sum, err := fileSum(blk)
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			firstSum = sum
		} else if sum != firstSum {
			return nil, fmt.Errorf("seed %d produced a different trace on set-up %d", o.seed, rep+1)
		}
		if rep < setupReps-1 {
			if err := cli.abort(); err != nil {
				return nil, err
			}
			if err := srv.terminate(); err != nil {
				return nil, err
			}
			cli, srv = nil, nil
			continue
		}
		me.entries = ents
	}

	if err := cliProbe.stop(); err != nil {
		return nil, err
	}
	quiesce()
	var pk chan peaks
	stop := make(chan struct{})
	if traced {
		pk = make(chan peaks, 1)
		go func() { pk <- samplePeaks(cli.pid(), srv.pid(), stop) }()
	}
	replayStart := time.Now().UnixNano()
	err = cli.run(d + replayTimeout)
	replayWin := window{replayStart, time.Now().UnixNano()}
	close(stop)
	if traced {
		me.peaks = <-pk
	}
	if err != nil {
		return nil, err
	}
	cli = nil
	if err := srvProbe.stop(); err != nil {
		return nil, err
	}
	cliSetup, err := cliProbe.meanRound(setupWins)
	if err != nil {
		return nil, err
	}
	srvSetup, err := srvProbe.meanRound(setupWins)
	if err != nil {
		return nil, err
	}
	me.probeSetupNs = (cliSetup + srvSetup) / 2
	if me.probeReplayNs, err = srvProbe.meanRound([]window{replayWin}); err != nil {
		return nil, err
	}
	if traced {
		if me.srvObs, err = scrapeServer(srv.obs); err != nil {
			return nil, err
		}
	}
	if err := srv.terminate(); err != nil {
		return nil, err
	}
	srv = nil
	if err := readResult(out, &me.res); err != nil {
		return nil, err
	}

	if err := me.analyse(); err != nil {
		return nil, err
	}
	ref, err := referenceEngine(zoneFiles)
	if err != nil {
		return nil, err
	}
	if me.verified, err = verifySample(ref, me.entries, me.res.Samples, me.m); err != nil {
		return nil, err
	}
	if traced {
		// A fresh engine, so the ceiling starts with a cold cache as the
		// server did.
		ceil, err := referenceEngine(zoneFiles)
		if err != nil {
			return nil, err
		}
		me.respond = respondCeiling(ceil, me.entries)
		if me.decode, err = decodeCeiling(blk); err != nil {
			return nil, err
		}
	}
	return me, nil
}

// quiesce stops this process and the kernel from working in the
// background of the replay window: it flushes the dirty pages set-up
// wrote (else writeback runs during the replay, on either side's CPU)
// and collects the set-up garbage and returns it to the OS (else the
// background scavenger does).
func quiesce() {
	syscall.Sync()
	debug.FreeOSMemory()
}

// peaks are resource high-water marks of a traced replay, sampled from
// outside both processes.
type peaks struct {
	ClientFDs, ServerThreads int64
	// ServerFDs is the server's peak open-file count above its count when
	// the replay started: the TCP connections it accepted, since its UDP
	// sockets and listeners are open from the start.
	ServerFDs int64
}

// samplePeaks polls both processes' fd and thread counts until stop
// closes.
func samplePeaks(clientPid, serverPid int, stop <-chan struct{}) peaks {
	cfd := "/proc/" + strconv.Itoa(clientPid) + "/fd"
	sfd := "/proc/" + strconv.Itoa(serverPid) + "/fd"
	spid := strconv.Itoa(serverPid)
	base, _ := countDir(sfd) // a failed read leaves the peak unadjusted
	var p peaks
	t := time.NewTicker(200 * time.Millisecond)
	defer t.Stop()
	for {
		if n, err := countDir(cfd); err == nil {
			p.ClientFDs = max(p.ClientFDs, int64(n))
		}
		if n, err := countDir(sfd); err == nil {
			p.ServerFDs = max(p.ServerFDs, int64(n-base))
		}
		if n, err := readStatusField(spid, "Threads"); err == nil {
			p.ServerThreads = max(p.ServerThreads, n)
		}
		select {
		case <-stop:
			return p
		case <-t.C:
		}
	}
}

func writeBlock(path string, ents []trace.Entry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	w := trace.NewBlockWriter(bw)
	for _, e := range ents {
		if err := w.Write(e); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fileSum(path string) ([32]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(data), nil
}

func readResult(path string, res *clientResult) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := gob.NewDecoder(bufio.NewReaderSize(f, 1<<20)).Decode(res); err != nil {
		return fmt.Errorf("decode client result: %w", err)
	}
	return nil
}

// analyse matches the logs to the trace, checks the ledger and derives
// the latency and scheduling samples.
func (me *measurement) analyse() error {
	r := &me.res
	n := len(me.entries)
	if r.RealStart == 0 {
		return fmt.Errorf("no query was sent")
	}
	if r.BadKeys != 0 {
		return fmt.Errorf("%d sent or received messages carry no question to match on", r.BadKeys)
	}
	if r.NSend > int64(len(r.Sends)) || r.NResp > int64(len(r.Resps)) {
		return fmt.Errorf("hook logs overflowed: %d sends, %d responses", r.NSend, r.NResp)
	}
	keys := make([]uint64, n)
	me.due = make([]int64, n)
	for i := range me.entries {
		e := &me.entries[i]
		k, ok := queryKey(e.Message)
		if !ok {
			return fmt.Errorf("trace entry %d has no question", i)
		}
		keys[i] = k
		me.due[i] = r.RealStart + e.Time.UnixNano() - r.T0
	}
	me.m = match(keys, me.due, r.Sends, r.Resps, matchSlack)
	me.ledger = newLedger(int64(n), r.NSend, r.NErr, me.m, r.Stats.Duplicates)
	if err := me.ledger.check(me.m, &r.Stats); err != nil {
		return err
	}

	me.latUs = make([]float64, 0, me.m.Answered)
	for i, ri := range me.m.RespOf {
		if ri >= 0 {
			at := r.Resps[ri].At
			me.latUs = append(me.latUs, float64(at-me.due[i])/1e3)
			me.lastResp = max(me.lastResp, at)
		}
	}
	slices.Sort(me.latUs)
	me.schedUs = make([]float64, len(r.Sends))
	for i, s := range r.Sends {
		me.schedUs[i] = float64(s.SchedErr) / 1e3
	}
	slices.Sort(me.schedUs)
	if len(me.latUs) == 0 {
		return fmt.Errorf("no query was answered")
	}

	med := func(f func(setupTimes) float64) float64 {
		v := make([]float64, len(me.setups))
		for i, s := range me.setups {
			v[i] = f(s)
		}
		slices.Sort(v)
		return quantile(v, 0.5)
	}
	me.setupMeds = setupTimes{
		gen:    med(func(s setupTimes) float64 { return s.gen }),
		zone:   med(func(s setupTimes) float64 { return s.zone }),
		server: med(func(s setupTimes) float64 { return s.server }),
		client: med(func(s setupTimes) float64 { return s.client }),
	}
	return nil
}

// endToEnd returns the metrics a user of the system sees.
func (me *measurement) endToEnd() []metric {
	r := &me.res
	n := float64(len(me.entries))
	answered := float64(me.m.Answered)
	ontime := 0
	limit := float64(ontimeLimit.Microseconds())
	for _, l := range me.latUs {
		if l <= limit {
			ontime++
		}
	}
	clientCPU := r.After.Client.sub(r.Before.Client)
	return []metric{
		{"answered_qps", "1/s", answered / (float64(me.lastResp-r.RealStart) / 1e9)},
		{"answered_frac", "ratio", answered / n},
		{"ontime_frac", "ratio", float64(ontime) / n},
		{"latency_p50_us", "us", quantile(me.latUs, 0.5)},
		{"latency_p99_us", "us", quantile(me.latUs, 0.99)},
		{"sched_err_p50_us", "us", quantile(me.schedUs, 0.5)},
		{"client_cpu_us_per_answer", "us", ticksToMicros(clientCPU.User+clientCPU.Sys) / answered},
		{"server_cpu_us_per_answer", "us", me.rawServerCPU() * me.serverSpeed()},
		{"client_rss_mb", "MB", float64(r.ClientHWMkB) / 1024},
		{"server_rss_mb", "MB", float64(r.ServerHWMkB) / 1024},
		{"setup_s", "s", me.rawSetup() * me.hostSpeed()},
	}
}

// rawServerCPU is the server's user+sys CPU per answer, in µs as
// measured.
func (me *measurement) rawServerCPU() float64 {
	d := me.res.After.Server.sub(me.res.Before.Server)
	return ticksToMicros(d.User+d.Sys) / float64(me.m.Answered)
}

// serverSpeed scales the server's CPU time over the replay to the
// probe's reference speed.
func (me *measurement) serverSpeed() float64 { return probeRefNs / me.probeReplayNs }

// hostSpeed scales set-up time, spent on both halves, to the probe's
// reference speed.
func (me *measurement) hostSpeed() float64 { return probeRefNs / me.probeSetupNs }

// rawSetup is the median set-up time, in seconds as measured.
func (me *measurement) rawSetup() float64 {
	totals := make([]float64, len(me.setups))
	for i, s := range me.setups {
		totals[i] = s.total()
	}
	slices.Sort(totals)
	return quantile(totals, 0.5)
}

// summary is a human-readable account of the run.
func (me *measurement) summary() string {
	l := me.ledger
	return fmt.Sprintf("%s seed %d: %d queries from %d sources; sent %d, send errors %d, answered %d, duplicate discards %d, unanswered %d; "+
		"latency p50 %.0f us p99 %.0f us p99.9 %.0f us over %d samples; sched err p50 %.0f us over %d sends; %d responses verified",
		me.wl.name, me.seed, l.Entries, me.res.Stats.Sources, l.Sent, l.SendErrors, l.Answered, l.DupDiscards, l.Unanswered,
		quantile(me.latUs, 0.5), quantile(me.latUs, 0.99), quantile(me.latUs, 0.999), len(me.latUs),
		quantile(me.schedUs, 0.5), len(me.schedUs), me.verified)
}
