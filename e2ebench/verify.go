package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"slices"
	"time"

	"ldplayer/internal/authserver"
	"ldplayer/internal/dnswire"
	"ldplayer/internal/trace"
	"ldplayer/internal/zone"
)

// loopback is the source address the server sees for every query.
var loopback = netip.MustParseAddr("127.0.0.1")

// zoneFile is a zone written in master-file form for the server.
type zoneFile struct {
	origin, path string
}

// zoneFlagName is the NAME of metadns's -zone NAME=FILE flag for origin.
func zoneFlagName(origin string) string {
	if origin == "." {
		return "root"
	}
	return origin
}

func writeZone(path string, z *zone.Zone) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := z.Write(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// referenceEngine builds an in-process engine over the zone files the
// server loaded, assembled the way metadns assembles them without -view
// flags.
func referenceEngine(files []zoneFile) (*authserver.Engine, error) {
	var zs []*zone.Zone
	for _, zf := range files {
		f, err := os.Open(zf.path)
		if err != nil {
			return nil, err
		}
		z, err := zone.Parse(f, dnswire.CanonicalName(zf.origin))
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", zf.path, err)
		}
		zs = append(zs, z)
	}
	eng := authserver.NewEngine()
	if err := eng.AddView(&authserver.View{Name: "default", Zones: zs}); err != nil {
		return nil, err
	}
	return eng, nil
}

func transportOf(p trace.Protocol) authserver.Transport {
	if p == trace.TCP {
		return authserver.TCP
	}
	return authserver.UDP
}

// verifySample checks every sampled response against what the reference
// engine answers to its matched query's bytes, source and transport. It
// returns the number checked.
func verifySample(ref *authserver.Engine, entries []trace.Entry, samples [][]byte, m matchResult) (int, error) {
	queryOf := make(map[int32]int, len(samples))
	for q, ri := range m.RespOf {
		if ri >= 0 && int(ri)%sampleEvery == 0 {
			queryOf[ri] = q
		}
	}
	checked := 0
	for k, got := range samples {
		ri := int32(k * sampleEvery)
		q, ok := queryOf[ri]
		if !ok {
			return checked, fmt.Errorf("sampled response %d matches no query", ri)
		}
		e := &entries[q]
		want, err := ref.Respond(e.Message, loopback, transportOf(e.Protocol))
		if err != nil {
			return checked, fmt.Errorf("reference engine on query %d: %w", q, err)
		}
		if !bytes.Equal(got, want) {
			return checked, fmt.Errorf("response to query %d (%s, %s) differs from the reference engine:\n got %x\nwant %x",
				q, describe(e.Message), e.Protocol, got, want)
		}
		checked++
	}
	if checked == 0 {
		return 0, fmt.Errorf("no response was sampled for verification")
	}
	return checked, nil
}

// describe renders a query's question for error messages.
func describe(msg []byte) string {
	var m dnswire.Message
	if err := m.Unpack(msg); err != nil || len(m.Question) == 0 {
		return fmt.Sprintf("%d-byte message", len(msg))
	}
	q := m.Question[0]
	return fmt.Sprintf("id %d %s %v", m.Header.ID, q.Name, q.Type)
}

// respondCeiling times the server's respond paths in process over the
// workload's own queries: EngineShard.AppendRespond for UDP queries, as
// the batched datapath calls it, and Engine.Respond for TCP. It returns
// ns per query.
func respondCeiling(eng *authserver.Engine, entries []trace.Entry) float64 {
	sh := eng.NewShard()
	buf := make([]byte, 0, 64*1024)
	start := time.Now()
	for i := range entries {
		e := &entries[i]
		if e.Protocol == trace.TCP {
			_, _ = eng.Respond(e.Message, loopback, authserver.TCP)
			continue
		}
		// Errors become FORMERR responses or drops; the cost is what counts.
		buf, _ = sh.AppendRespond(buf[:0], e.Message, loopback, authserver.UDP)
		if i%64 == 63 {
			sh.EndBatch()
		}
	}
	sh.EndBatch()
	return float64(time.Since(start).Nanoseconds()) / float64(len(entries))
}

// decodePasses is how many times decodeCeiling decodes the whole trace;
// it reports the median pass.
const decodePasses = 5

// decodeCeiling times trace.DecodeBlock, in process and on one
// goroutine, over every block of the run's own .blk file. It returns ns
// per entry. In the replay the block reader runs the same decode on its
// worker goroutines, ahead of the engine, where it cannot be timed
// apart from the hand-off to the engine.
func decodeCeiling(path string) (float64, error) {
	br, err := trace.OpenBlockFile(path)
	if err != nil {
		return 0, err
	}
	blocks, entries := br.Blocks(), br.Entries()
	if err := br.Close(); err != nil {
		return 0, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var dst []trace.Entry // grown by the first block, then reused
	passes := make([]float64, decodePasses)
	for p := range passes {
		start := time.Now()
		for _, b := range blocks {
			hdr, err := trace.ParseBlockHeader(data[b.Offset:])
			if err != nil {
				return 0, err
			}
			body := data[b.Offset+trace.BlockHeaderSize:]
			if int64(hdr.StoredLen) > int64(len(body)) {
				return 0, fmt.Errorf("%s: block at offset %d runs past the end", path, b.Offset)
			}
			if dst, err = trace.DecodeBlock(hdr, body[:hdr.StoredLen], dst[:0]); err != nil {
				return 0, err
			}
		}
		passes[p] = float64(time.Since(start).Nanoseconds()) / float64(entries)
	}
	slices.Sort(passes)
	return quantile(passes, 0.5), nil
}
