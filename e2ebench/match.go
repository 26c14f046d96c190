package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"ldplayer/internal/replay"
)

// sendRec is one OnSend observation: the query's key, the send time, the
// engine's scheduling error for it, and a ticket from the counter both
// hooks share, which orders hook calls across goroutines.
type sendRec struct {
	Key      uint64
	At       int64 // unix ns
	SchedErr int64 // ns, actual send minus ideal trace time
	Ticket   uint64
}

// respRec is one OnResponse observation.
type respRec struct {
	Key    uint64
	At     int64 // unix ns
	Ticket uint64
}

// queryKey hashes what a response echoes of its query: the ID, the
// opcode, RD and CD flags, the question section (name, type and class,
// byte for byte), whether an EDNS OPT record is present and its DO bit.
// Queries that agree on all of these get byte-identical answers from
// the server, so matching cannot confuse queries whose answers differ.
// ok is false when the message has no complete question or a malformed
// record.
func queryKey(msg []byte) (key uint64, ok bool) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	if len(msg) < 12 || msg[4]|msg[5] == 0 {
		return 0, false
	}
	// The first question name follows the header. It cannot be
	// compressed, so it ends at the first zero-length label.
	i := 12
	for {
		if i >= len(msg) {
			return 0, false
		}
		l := int(msg[i])
		if l == 0 {
			break
		}
		if l&0xC0 != 0 {
			return 0, false
		}
		i += 1 + l
	}
	end := i + 1 + 4 // root label, qtype, qclass
	if end > len(msg) {
		return 0, false
	}
	opt, do, ok := findOPT(msg, end)
	if !ok {
		return 0, false
	}
	h := uint64(offset)
	for _, b := range [...]byte{msg[0], msg[1], msg[2] & 0x79, msg[3] & 0x10, opt, do} {
		h = (h ^ uint64(b)) * prime
	}
	for _, b := range msg[12:end] {
		h = (h ^ uint64(b)) * prime
	}
	return h, true
}

// findOPT walks the answer, authority and additional records that start
// at off, reporting whether an OPT record is present (1) and its DO bit
// (1). The message must hold a single question.
func findOPT(msg []byte, off int) (opt, do byte, ok bool) {
	if msg[4] != 0 || msg[5] != 1 {
		return 0, 0, false
	}
	records := u16(msg, 6) + u16(msg, 8) + u16(msg, 10) // answer, authority, additional
	i := off
	for range records {
		if i = skipName(msg, i); i < 0 || i+10 > len(msg) {
			return 0, 0, false
		}
		if msg[i] == 0 && msg[i+1] == 41 { // TYPE OPT
			// The TTL field holds the extended RCODE, the version and
			// the flags, whose top bit is DO.
			opt, do = 1, msg[i+6]>>7
		}
		i += 10 + u16(msg, i+8) // fixed fields, then RDATA
	}
	return opt, do, i <= len(msg)
}

// u16 reads the big-endian 16-bit field at i.
func u16(msg []byte, i int) int { return int(msg[i])<<8 | int(msg[i+1]) }

// skipName returns the offset just past the possibly compressed name at
// i, or -1 if it runs off the message.
func skipName(msg []byte, i int) int {
	for i < len(msg) {
		l := int(msg[i])
		switch {
		case l == 0:
			return i + 1
		case l&0xC0 == 0xC0:
			if i+2 > len(msg) {
				return -1
			}
			return i + 2
		case l&0xC0 != 0:
			return -1
		}
		i += 1 + l
	}
	return -1
}

// matchResult pairs trace queries with logged sends and responses.
type matchResult struct {
	// SendOf and RespOf give, per trace query, the index of its send and
	// response records, or -1.
	SendOf, RespOf []int32
	// Answered counts queries with a matched response.
	Answered int64
	// SentUnanswered counts queries with a send but no response.
	SentUnanswered int64
	// UnmatchedSends and UnmatchedResps count records no query claimed.
	UnmatchedSends, UnmatchedResps int64
	// RespBeforeSend counts matched responses whose OnResponse ran before
	// their query's OnSend.
	RespBeforeSend int64
}

// match pairs records with queries after the run, so the result does not
// depend on the order in which the hooks happened to fire.
//
// Queries, sends and responses are grouped by key. Within a key the k-th
// send (in ticket order) belongs to the k-th query (in due order), and
// each response (in arrival order) goes to the earliest sent query still
// unanswered that was due no later than slack after the arrival. A busy
// source that repeats an ID and question thus gets one answer per query,
// in order, and a query whose answer never came stays unanswered instead
// of stealing a later query's response.
func match(keys []uint64, due []int64, sends []sendRec, resps []respRec, slack int64) matchResult {
	n := len(keys)
	m := matchResult{SendOf: make([]int32, n), RespOf: make([]int32, n)}
	for i := range m.SendOf {
		m.SendOf[i], m.RespOf[i] = -1, -1
	}
	qi := make([]int32, n)
	for i := range qi {
		qi[i] = int32(i)
	}
	slices.SortFunc(qi, func(a, b int32) int {
		return cmp.Or(cmp.Compare(keys[a], keys[b]), cmp.Compare(due[a], due[b]), cmp.Compare(a, b))
	})
	si := make([]int32, len(sends))
	for i := range si {
		si[i] = int32(i)
	}
	slices.SortFunc(si, func(a, b int32) int {
		return cmp.Or(cmp.Compare(sends[a].Key, sends[b].Key), cmp.Compare(sends[a].Ticket, sends[b].Ticket))
	})
	ri := make([]int32, len(resps))
	for i := range ri {
		ri[i] = int32(i)
	}
	slices.SortFunc(ri, func(a, b int32) int {
		return cmp.Or(cmp.Compare(resps[a].Key, resps[b].Key), cmp.Compare(resps[a].At, resps[b].At),
			cmp.Compare(resps[a].Ticket, resps[b].Ticket))
	})

	var sent []int32 // the current key's sent queries, in due order
	q, s, r := 0, 0, 0
	for q < n || s < len(si) || r < len(ri) {
		// The smallest key among the three heads.
		k := uint64(math.MaxUint64)
		if q < n {
			k = keys[qi[q]]
		}
		if s < len(si) {
			k = min(k, sends[si[s]].Key)
		}
		if r < len(ri) {
			k = min(k, resps[ri[r]].Key)
		}
		q0 := q
		for q < n && keys[qi[q]] == k {
			q++
		}
		sent = sent[:0]
		j := q0
		for ; s < len(si) && sends[si[s]].Key == k; s++ {
			if j < q {
				m.SendOf[qi[j]] = si[s]
				sent = append(sent, qi[j])
				j++
			} else {
				m.UnmatchedSends++
			}
		}
		p := 0
		for ; r < len(ri) && resps[ri[r]].Key == k; r++ {
			rec := &resps[ri[r]]
			if p < len(sent) && due[sent[p]] <= rec.At+slack {
				qq := sent[p]
				m.RespOf[qq] = ri[r]
				m.Answered++
				if rec.Ticket < sends[m.SendOf[qq]].Ticket {
					m.RespBeforeSend++
				}
				p++
			} else {
				m.UnmatchedResps++
			}
		}
		m.SentUnanswered += int64(len(sent) - p)
	}
	return m
}

// quantile returns the q-quantile of the ascending sample sorted, interpolating
// linearly between the two nearest ranks (the "R-7" definition, as numpy
// computes it by default). NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// ledger is the run's per-query account: every trace entry is either
// sent or failed to send, and every sent query is answered, had its
// answer discarded as a duplicate, or got none.
type ledger struct {
	Entries     int64
	Sent        int64
	SendErrors  int64
	Answered    int64
	DupDiscards int64
	Unanswered  int64
}

// newLedger builds the account from the harness's own logs and matching;
// only the duplicate-discard count comes from the engine, which is the
// sole place discards are visible.
func newLedger(entries, sends, sendErrors int64, m matchResult, dups int64) ledger {
	return ledger{
		Entries:     entries,
		Sent:        sends,
		SendErrors:  sendErrors,
		Answered:    m.Answered,
		DupDiscards: dups,
		Unanswered:  m.SentUnanswered - dups,
	}
}

// check verifies that the books balance: every entry was sent or failed
// to send, every logged record belongs to a trace query, the discards
// fit among the sent queries left unanswered, and the engine's counters
// agree with the hooks. With every send matched, sent = answered +
// duplicate discards + unanswered holds by construction of the ledger.
func (l ledger) check(m matchResult, en *replay.Stats) error {
	switch {
	case l.Entries != l.Sent+l.SendErrors:
		return fmt.Errorf("ledger: %d entries != %d sent + %d send errors", l.Entries, l.Sent, l.SendErrors)
	case m.UnmatchedSends != 0 || m.UnmatchedResps != 0:
		return fmt.Errorf("ledger: %d sends and %d responses match no trace query", m.UnmatchedSends, m.UnmatchedResps)
	case l.Unanswered < 0:
		return fmt.Errorf("ledger: %d duplicate discards exceed the %d sent queries left unanswered", l.DupDiscards, l.DupDiscards+l.Unanswered)
	case en.Sent != l.Sent || en.Errors != l.SendErrors || en.Responses != l.Answered:
		return fmt.Errorf("ledger: engine counted sent=%d errors=%d responses=%d, hooks saw %d/%d/%d",
			en.Sent, en.Errors, en.Responses, l.Sent, l.SendErrors, l.Answered)
	}
	return nil
}
