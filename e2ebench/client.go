package main

import (
	"bufio"
	"context"
	"encoding/gob"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ldplayer/internal/obs"
	"ldplayer/internal/replay"
	"ldplayer/internal/trace"
)

// sampleEvery is the stride of the response sample kept for byte-for-byte
// verification: every sampleEvery-th logged response.
const sampleEvery = 97

// recorder holds the replay hooks' logs. Everything is allocated before
// the run, and each hook does O(1) work: a hash of what a response
// echoes of its query, two atomic adds and a store. So the harness costs
// the same on every commit. Matching happens after the run, in the
// parent process.
type recorder struct {
	t0 time.Time // trace epoch

	ticket atomic.Uint64
	nsend  atomic.Int64
	nresp  atomic.Int64
	nerr   atomic.Int64
	// realStart is the replay's sync point: the wall time, in unix ns,
	// the trace epoch maps to. Every OnSend call implies the same value,
	// so the first store wins and call order does not matter.
	realStart atomic.Int64
	// badKeys counts hook messages without a question to key on.
	badKeys atomic.Int64

	sends   []sendRec
	resps   []respRec
	samples [][]byte
}

func newRecorder(entries int, t0 time.Time) *recorder {
	return &recorder{
		t0:    t0,
		sends: make([]sendRec, entries),
		// Responses are bounded by sends (duplicates never reach the
		// hook); the slack absorbs stray extras so they are counted, not
		// dropped.
		resps:   make([]respRec, entries+1024),
		samples: make([][]byte, (entries+1024)/sampleEvery+1),
	}
}

func (r *recorder) onSend(e *trace.Entry, at time.Time, schedErr time.Duration) {
	t := r.ticket.Add(1)
	i := r.nsend.Add(1) - 1
	atNs := at.UnixNano()
	if r.realStart.Load() == 0 {
		r.realStart.CompareAndSwap(0, atNs-int64(schedErr)-int64(e.Time.Sub(r.t0)))
	}
	if i >= int64(len(r.sends)) {
		return // counted by nsend; the ledger reports the overflow
	}
	k, ok := queryKey(e.Message)
	if !ok {
		r.badKeys.Add(1)
	}
	r.sends[i] = sendRec{Key: k, At: atNs, SchedErr: int64(schedErr), Ticket: t}
}

func (r *recorder) onResponse(msg []byte, at time.Time) {
	t := r.ticket.Add(1)
	i := r.nresp.Add(1) - 1
	if i >= int64(len(r.resps)) {
		return
	}
	k, ok := queryKey(msg)
	if !ok {
		r.badKeys.Add(1)
	}
	r.resps[i] = respRec{Key: k, At: at.UnixNano(), Ticket: t}
	if i%sampleEvery == 0 {
		// The engine hands OnResponse a copy it no longer uses.
		r.samples[i/sampleEvery] = msg
	}
}

func (r *recorder) onError(*trace.Entry, error) { r.nerr.Add(1) }

// batchSpan is one timed NextBatch call into the block reader.
type batchSpan struct {
	Start, End int64 // unix ns
	N          int
}

// timedReader wraps the block reader in a traced run and records each
// NextBatch call. The reader decodes blocks on its own goroutines, ahead
// of the engine, so a call spans the copy out of a decoded block plus any
// wait for the next one, not the decode itself. It forwards TraceStart so
// the engine takes the same sync-point path as with the bare reader.
type timedReader struct {
	br    *trace.BlockReader
	spans []batchSpan
}

func (t *timedReader) Next() (trace.Entry, error) { return t.br.Next() }

func (t *timedReader) TraceStart() (time.Time, bool) { return t.br.TraceStart() }

func (t *timedReader) NextBatch(dst []trace.Entry) (int, error) {
	start := time.Now()
	n, err := t.br.NextBatch(dst)
	t.spans = append(t.spans, batchSpan{start.UnixNano(), time.Now().UnixNano(), n})
	return n, err
}

// procSnap is a set of counters read at one edge of the replay window.
type procSnap struct {
	Client, Server cpuTimes
	SNMP           map[string]int64
	Mallocs        uint64
	NumGC          uint32
}

func takeSnap(serverPid string, traced bool) (procSnap, error) {
	var s procSnap
	var err error
	if s.Client, err = readCPU("self"); err != nil {
		return s, err
	}
	if s.Server, err = readCPU(serverPid); err != nil {
		return s, err
	}
	if traced {
		if s.SNMP, err = readSNMP(); err != nil {
			return s, err
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.Mallocs, s.NumGC = ms.Mallocs, ms.NumGC
	}
	return s, nil
}

// goroutinePeak samples the goroutine count until stop closes and
// returns the largest value seen. It allocates nothing, so it leaves the
// allocation and GC counters of the run it observes alone.
func goroutinePeak(stop <-chan struct{}) int64 {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	peak := int64(runtime.NumGoroutine())
	for {
		select {
		case <-stop:
			return peak
		case <-t.C:
			peak = max(peak, int64(runtime.NumGoroutine()))
		}
	}
}

// clientResult is what the client process hands back to the parent.
type clientResult struct {
	T0, RealStart  int64
	Sends          []sendRec
	Resps          []respRec
	Samples        [][]byte
	NSend, NResp   int64
	NErr, BadKeys  int64
	Stats          replay.Stats
	Before, After  procSnap
	ClientHWMkB    int64
	ServerHWMkB    int64
	GoroutinesPeak int64
	BatchSpans     []batchSpan
	SendBatchMean  float64
	RTTp50, RTTp99 float64 // ns, from the engine's histogram
}

// runClient is the replay process: it opens the block trace and creates
// the engine the way `ldplayer replay` does, reports "ready", replays on
// "go" and writes a clientResult. EOF on stdin instead of "go" ends a
// set-up-only repetition.
func runClient(args []string) error {
	fs := flag.NewFlagSet("client", flag.ContinueOnError)
	blk := fs.String("blk", "", "LDTRC02 trace to replay")
	entries := fs.Int("entries", 0, "entries in the trace")
	udp := fs.String("udp", "", "server UDP address")
	tcp := fs.String("tcp", "", "server TCP address")
	serverPid := fs.Int("server-pid", 0, "server process id")
	out := fs.String("out", "", "result file")
	traced := fs.Bool("traced", false, "instrument the engine and sample resources")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spid := strconv.Itoa(*serverPid)

	br, err := trace.OpenBlockFile(*blk)
	if err != nil {
		return err
	}
	defer br.Close()
	t0, ok := br.TraceStart()
	if !ok {
		return fmt.Errorf("%s: no trace start", *blk)
	}
	rec := newRecorder(*entries, t0)
	var rd trace.Reader = br
	var tr *timedReader
	if *traced {
		tr = &timedReader{br: br, spans: make([]batchSpan, 0, *entries/64+64)}
		rd = tr
	}
	en, err := replay.New(replay.Config{
		UDPTarget:  *udp,
		TCPTarget:  *tcp,
		OnSend:     rec.onSend,
		OnResponse: rec.onResponse,
		OnError:    rec.onError,
	})
	if err != nil {
		return err
	}
	var reg *obs.Registry
	if *traced {
		reg = obs.NewRegistry()
		en.Instrument(reg)
	}
	fmt.Println("ready")
	in := bufio.NewScanner(os.Stdin)
	if !in.Scan() || in.Text() != "go" {
		return nil
	}

	var res clientResult
	res.T0 = t0.UnixNano()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if *traced {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.GoroutinesPeak = goroutinePeak(stop)
		}()
	}
	if res.Before, err = takeSnap(spid, *traced); err != nil {
		return err
	}
	st, err := en.Replay(context.Background(), rd)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if res.After, err = takeSnap(spid, *traced); err != nil {
		return err
	}
	close(stop)
	wg.Wait()
	if res.ClientHWMkB, err = readStatusField("self", "VmHWM"); err != nil {
		return err
	}
	if res.ServerHWMkB, err = readStatusField(spid, "VmHWM"); err != nil {
		return err
	}

	res.RealStart = rec.realStart.Load()
	res.NSend, res.NResp, res.NErr, res.BadKeys = rec.nsend.Load(), rec.nresp.Load(), rec.nerr.Load(), rec.badKeys.Load()
	res.Sends = rec.sends[:min(res.NSend, int64(len(rec.sends)))]
	res.Resps = rec.resps[:min(res.NResp, int64(len(rec.resps)))]
	res.Samples = rec.samples[:(len(res.Resps)+sampleEvery-1)/sampleEvery]
	res.Stats = *st
	if tr != nil {
		res.BatchSpans = tr.spans
		for _, s := range reg.Snapshot() {
			switch {
			case s.Hist == nil:
			case s.Name == "ldplayer_send_batch_size" && s.Hist.Count > 0:
				res.SendBatchMean = float64(s.Hist.Sum) / float64(s.Hist.Count)
			case s.Name == "ldplayer_rtt_ns":
				res.RTTp50, res.RTTp99 = s.Hist.Quantile(0.5), s.Hist.Quantile(0.99)
			}
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := gob.NewEncoder(w).Encode(&res); err != nil {
		f.Close()
		return fmt.Errorf("encode result: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
