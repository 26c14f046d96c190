package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host changes speed from one period to the next. On a shared VM,
// with the same code and CPU pinning, the server's CPU per answer and the
// set-up time have doubled between sets of runs made an hour apart, and
// the speed also flips between states every few seconds. The probe
// measures it: a process on each CPU half times a fixed round of kernel
// work every probeEvery. The server half's probe runs through set-up and
// the replay; the client half's only through set-up, so that it does not
// interrupt the client's pacing. The metrics that count the server's or
// set-up's work are reported at a reference speed, probeRefNs per round,
// using the mean round over the span the work took.
//
// A round is kernel work like the server's: datagrams sent and read back
// over loopback, and cheap system calls. Of the kernels tried (a cached
// hash loop, cache-missing loads, system calls, loopback datagrams, pipe
// ping-pong and a wake-up from idle), these two moved most nearly in
// proportion with the server's CPU per answer as the host slowed. A
// cached hash loop slowed by a fifth where the server's CPU per answer
// doubled.

const (
	// probeEvery is the gap between timed rounds.
	probeEvery = 20 * time.Millisecond
	// probeDatagrams is how many 100-byte datagrams a round sends to its
	// own socket and reads back.
	probeDatagrams = 8
	// probeSyscalls is how many getppid calls a round makes.
	probeSyscalls = 200
	// probeRefNs is the reference round, in ns of CPU time. It is fixed
	// once, near the mean round on a 2-CPU Firecracker VM (Xeon, Sapphire
	// Rapids class, Linux 6.18), so scaled figures stay close to measured
	// ones there.
	probeRefNs = 60000
)

// runProbe is the probe process. Every probeEvery it times one round and
// prints the round's end, in unix ns, and the thread CPU time it took, in
// ns, until its standard input closes. CPU time leaves out the time the
// round waits for a CPU another process holds, as during set-up.
func runProbe() error {
	runtime.LockOSThread()
	fd, err := loopbackSocket()
	if err != nil {
		return err
	}
	defer syscall.Close(fd)
	msg := make([]byte, 100)
	buf := make([]byte, 512)
	round := func() (time.Time, int64, error) {
		start, err := threadCPUTime()
		if err != nil {
			return time.Time{}, 0, err
		}
		for i := 0; i < probeDatagrams; i++ {
			if _, err := syscall.Write(fd, msg); err != nil {
				return time.Time{}, 0, fmt.Errorf("probe send: %w", err)
			}
			if _, err := syscall.Read(fd, buf); err != nil {
				return time.Time{}, 0, fmt.Errorf("probe receive: %w", err)
			}
		}
		for i := 0; i < probeSyscalls; i++ {
			syscall.Getppid()
		}
		end, err := threadCPUTime()
		return time.Now(), end - start, err
	}
	// Warm the socket and the code before the first sample.
	for i := 0; i < 20; i++ {
		if _, _, err := round(); err != nil {
			return err
		}
	}
	done := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(done)
	}()
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		end, d, err := round()
		if err != nil {
			return err
		}
		fmt.Println(end.UnixNano(), d)
		select {
		case <-done:
			return nil
		case <-tick.C:
		}
	}
}

// threadCPUTime returns the calling thread's CPU time, in ns.
func threadCPUTime() (int64, error) {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", e)
	}
	return ts.Nano(), nil
}

// loopbackSocket returns a blocking UDP socket connected to itself on
// 127.0.0.1.
func loopbackSocket() (int, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM, 0)
	if err != nil {
		return 0, err
	}
	lo := &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}
	if err := syscall.Bind(fd, lo); err != nil {
		syscall.Close(fd)
		return 0, err
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		syscall.Close(fd)
		return 0, err
	}
	if err := syscall.Connect(fd, sa); err != nil {
		syscall.Close(fd)
		return 0, err
	}
	return fd, nil
}

// prober is a probe process running on one CPU half, and the rounds it
// has reported.
type prober struct {
	*child
	stdin io.WriteCloser

	mu      sync.Mutex
	samples []probeSample
}

// probeSample is one timed round.
type probeSample struct {
	end, ns int64
}

// startProber starts the probe on cpus and waits for its first round.
func startProber(self string, cpus []int) (*prober, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	p := &prober{stdin: pw}
	record := func(l string) bool {
		a, b, ok := strings.Cut(l, " ")
		end, err1 := strconv.ParseInt(a, 10, 64)
		ns, err2 := strconv.ParseInt(b, 10, 64)
		if !ok || err1 != nil || err2 != nil || ns <= 0 {
			return false
		}
		p.mu.Lock()
		p.samples = append(p.samples, probeSample{end, ns})
		p.mu.Unlock()
		return true
	}
	c, err := startChild("probe on CPUs "+cpuListString(cpus), cpus, pr, record, self, "probe")
	pr.Close() // the child holds its own copy
	if err != nil {
		pw.Close()
		return nil, err
	}
	p.child = c
	if err := c.waitReady(30 * time.Second); err != nil {
		pw.Close()
		return nil, err
	}
	return p, nil
}

// stop ends the probe and waits for it.
func (p *prober) stop() error {
	p.stdin.Close()
	return p.wait(10 * time.Second)
}

// window is a span of wall time, in unix ns.
type window struct{ from, to int64 }

// meanRound returns the mean length of the rounds that ended inside any
// of the windows, in ns.
func (p *prober) meanRound(ws []window) (float64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum float64
	n := 0
	for _, s := range p.samples {
		for _, w := range ws {
			if s.end >= w.from && s.end <= w.to {
				sum += float64(s.ns)
				n++
				break
			}
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("%s: no round inside %d windows", p.name, len(ws))
	}
	return sum / float64(n), nil
}
