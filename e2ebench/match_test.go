package main

import (
	"math"
	"strings"
	"testing"

	"ldplayer/internal/authserver"
	"ldplayer/internal/dnswire"
	"ldplayer/internal/replay"
	"ldplayer/internal/zone"
)

func wire(t *testing.T, id uint16, name string) []byte {
	t.Helper()
	b, err := dnswire.NewQuery(id, name, dnswire.TypeA).Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func key(t *testing.T, msg []byte) uint64 {
	t.Helper()
	k, ok := queryKey(msg)
	if !ok {
		t.Fatalf("no key for %x", msg)
	}
	return k
}

const testZone = `$ORIGIN example.com.
@ 3600 IN SOA ns1 hostmaster 1 7200 900 1209600 300
@ 3600 IN NS ns1
ns1 3600 IN A 192.0.2.53
www 3600 IN A 192.0.2.1
`

// Every query keys like the server's answer to it, and queries whose
// answers can differ key differently.
func TestQueryKey(t *testing.T) {
	z, err := zone.Parse(strings.NewReader(testZone), "example.com.")
	if err != nil {
		t.Fatal(err)
	}
	eng := authserver.NewEngine()
	if err := eng.AddView(&authserver.View{Name: "default", Zones: []*zone.Zone{z}}); err != nil {
		t.Fatal(err)
	}
	variants := map[string]func(m *dnswire.Message){
		"plain":    func(m *dnswire.Message) {},
		"other id": func(m *dnswire.Message) { m.Header.ID = 8 },
		"no rd":    func(m *dnswire.Message) { m.Header.RD = false },
		"edns":     func(m *dnswire.Message) { m.Edns = &dnswire.EDNS{UDPSize: 1232} },
		"edns do":  func(m *dnswire.Message) { m.Edns = &dnswire.EDNS{UDPSize: 4096, DO: true} },
		"nxdomain": func(m *dnswire.Message) { m.Question[0].Name = "ftp.example.com." },
		"nxdomain do": func(m *dnswire.Message) {
			m.Question[0].Name = "ftp.example.com."
			m.Edns = &dnswire.EDNS{UDPSize: 4096, DO: true}
		},
		"aaaa": func(m *dnswire.Message) { m.Question[0].Type = dnswire.TypeAAAA },
	}
	seen := map[uint64]string{}
	for name, mod := range variants {
		m := dnswire.NewQuery(7, "www.example.com.", dnswire.TypeA)
		mod(m)
		q, err := m.Pack(nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := eng.Respond(q, loopback, authserver.UDP)
		if err != nil {
			t.Fatal(err)
		}
		if key(t, q) != key(t, resp) {
			t.Errorf("%s: query and response key differently", name)
		}
		if other, dup := seen[key(t, q)]; dup {
			t.Errorf("%s and %s share a key", name, other)
		}
		seen[key(t, q)] = name
	}

	q := wire(t, 7, "www.example.com.")
	upper := append([]byte(nil), q...)
	upper[13] = 'W' // first letter of the first label
	if key(t, q) == key(t, upper) {
		t.Error("question bytes differing in case share a key")
	}
	noQuestion := append([]byte(nil), q[:12]...)
	noQuestion[5] = 0
	badRecord := append(append([]byte(nil), q...), 0, 0, 41)
	badRecord[11] = 1 // an additional record cut short
	for name, m := range map[string][]byte{
		"short":       q[:11],
		"no question": noQuestion,
		"truncated":   q[:len(q)-2],
		"pointer":     append(append([]byte(nil), q[:12]...), 0xC0, 12, 0, 1, 0, 1),
		"bad record":  badRecord,
	} {
		if _, ok := queryKey(m); ok {
			t.Errorf("%s: got a key", name)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.99, 3.97}, {1, 4},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{5}, 0.99); got != 5 {
		t.Errorf("single sample: %v", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty sample: %v, want NaN", got)
	}
}

// logs is a tiny replay log builder: queries with their due times, and
// hook records with explicit tickets.
type logs struct {
	keys  []uint64
	due   []int64
	sends []sendRec
	resps []respRec
}

func (r *logs) query(k uint64, due int64) { r.keys = append(r.keys, k); r.due = append(r.due, due) }
func (r *logs) send(k uint64, at int64, ticket uint64) {
	r.sends = append(r.sends, sendRec{Key: k, At: at, Ticket: ticket})
}
func (r *logs) resp(k uint64, at int64, ticket uint64) {
	r.resps = append(r.resps, respRec{Key: k, At: at, Ticket: ticket})
}
func (r *logs) match() matchResult { return match(r.keys, r.due, r.sends, r.resps, 10) }

func TestMatchInOrder(t *testing.T) {
	var r logs
	for i := range 3 {
		k := uint64(100 + i)
		r.query(k, int64(i*1000))
		r.send(k, int64(i*1000+5), uint64(2*i+1))
		r.resp(k, int64(i*1000+50), uint64(2*i+2))
	}
	m := r.match()
	if m.Answered != 3 || m.SentUnanswered != 0 || m.UnmatchedSends != 0 || m.UnmatchedResps != 0 || m.RespBeforeSend != 0 {
		t.Fatalf("%+v", m)
	}
	for q := range 3 {
		if m.SendOf[q] != int32(q) || m.RespOf[q] != int32(q) {
			t.Errorf("query %d: send %d resp %d", q, m.SendOf[q], m.RespOf[q])
		}
	}
}

// A response whose OnResponse ran before its query's OnSend still
// matches, with its latency from the due time, and is counted.
func TestMatchResponseBeforeSend(t *testing.T) {
	var r logs
	r.query(1, 1000)
	r.resp(1, 1040, 1) // the reader settled first...
	r.send(1, 1020, 2) // ...before the send was recorded
	m := r.match()
	if m.Answered != 1 || m.RespOf[0] != 0 || m.RespBeforeSend != 1 {
		t.Fatalf("%+v", m)
	}
}

// A busy source repeating an ID and question: each response goes to the
// earliest unanswered query, and a lost answer leaves the later query
// unanswered rather than the earlier one.
func TestMatchDuplicateKey(t *testing.T) {
	var r logs
	r.query(9, 1000)
	r.query(9, 2000)
	r.send(9, 1001, 1)
	r.send(9, 2001, 3)
	r.resp(9, 1100, 2) // the second answer was discarded as a duplicate
	m := r.match()
	if m.Answered != 1 || m.RespOf[0] != 0 || m.RespOf[1] != -1 || m.SentUnanswered != 1 {
		t.Fatalf("%+v", m)
	}

	// Both in flight, answers arriving after both were due: first come,
	// first matched.
	var r2 logs
	r2.query(9, 1000)
	r2.query(9, 1001)
	r2.send(9, 1002, 1)
	r2.send(9, 1003, 2)
	r2.resp(9, 5000, 4)
	r2.resp(9, 4000, 3)
	m = r2.match()
	if m.Answered != 2 || m.RespOf[0] != 1 || m.RespOf[1] != 0 {
		t.Fatalf("%+v", m)
	}
}

func TestMatchUnmatched(t *testing.T) {
	var r logs
	r.query(1, 1000)
	r.send(1, 1001, 1)
	r.resp(1, 900, 2) // arrived before the query was due, beyond the slack
	r.send(2, 1001, 3)
	r.resp(3, 1200, 4)
	m := r.match()
	if m.Answered != 0 || m.UnmatchedSends != 1 || m.UnmatchedResps != 2 || m.SentUnanswered != 1 {
		t.Fatalf("%+v", m)
	}
}

func TestLedger(t *testing.T) {
	// 10 entries: 9 sent, 1 send error; 6 answered, 2 duplicate
	// discards, 1 with no answer at all.
	m := matchResult{Answered: 6, SentUnanswered: 3}
	en := &replay.Stats{Sent: 9, Responses: 6, Errors: 1, Duplicates: 2, Unanswered: 3}
	l := newLedger(10, 9, 1, m, 2)
	if l.Unanswered != 1 {
		t.Fatalf("unanswered %d, want 1", l.Unanswered)
	}
	if err := l.check(m, en); err != nil {
		t.Fatal(err)
	}

	bad := []struct {
		name string
		l    ledger
		m    matchResult
		en   *replay.Stats
	}{
		{"entries", newLedger(11, 9, 1, m, 2), m, en},
		{"unmatched response", l, matchResult{Answered: 6, SentUnanswered: 3, UnmatchedResps: 1}, en},
		{"discards exceed unanswered", newLedger(10, 9, 1, m, 4), m, &replay.Stats{Sent: 9, Responses: 6, Errors: 1, Duplicates: 4, Unanswered: 3}},
		{"engine sent", l, m, &replay.Stats{Sent: 10, Responses: 6, Errors: 1, Duplicates: 2, Unanswered: 3}},
		{"engine responses", l, m, &replay.Stats{Sent: 9, Responses: 5, Errors: 1, Duplicates: 2, Unanswered: 4}},
	}
	for _, c := range bad {
		if err := c.l.check(c.m, c.en); err == nil {
			t.Errorf("%s: books balanced", c.name)
		}
	}
}
