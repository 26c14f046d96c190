package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// lineWriter is a child's stdout: it hands each complete line to onLine
// and keeps the tail of the output for error messages.
type lineWriter struct {
	mu     sync.Mutex
	buf    []byte
	tail   []string
	onLine func(string)
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if len(w.tail) == 8 {
			w.tail = w.tail[1:]
		}
		w.tail = append(w.tail, line)
		if w.onLine != nil {
			w.onLine(line)
		}
	}
}

func (w *lineWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Join(w.tail, "\n")
}

// child is a pinned child process: taskset restricts it to cpus and
// GOMAXPROCS matches their count. Its pid is the program's own, since
// taskset execs it.
type child struct {
	name   string
	cmd    *exec.Cmd
	stdout *lineWriter
	stderr *lineWriter
	ready  chan struct{} // closed once the child reports it is ready
	done   chan struct{} // closed once the child has exited and been reaped
	err    error         // Wait's result, valid after done
}

func startChild(name string, cpus []int, stdin io.Reader, isReady func(line string) bool, prog string, args ...string) (*child, error) {
	c := &child{name: name, ready: make(chan struct{}), done: make(chan struct{}), stderr: &lineWriter{}}
	var once sync.Once
	c.stdout = &lineWriter{onLine: func(l string) {
		if isReady(l) {
			once.Do(func() { close(c.ready) })
		}
	}}
	c.cmd = exec.Command("taskset", append([]string{"-c", cpuListString(cpus), prog}, args...)...)
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(len(cpus)))
	c.cmd.Stdin = stdin
	c.cmd.Stdout = c.stdout
	c.cmd.Stderr = c.stderr
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// waitReady blocks until the child is ready, exits, or timeout passes.
func (c *child) waitReady(timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-c.ready:
		return nil
	case <-c.done:
		return fmt.Errorf("%s exited before it was ready (%v): %s", c.name, c.err, c.stderr)
	case <-t.C:
		c.kill()
		return fmt.Errorf("%s not ready after %v: %s", c.name, timeout, c.stderr)
	}
}

// wait blocks until the child exits; after timeout it is killed.
func (c *child) wait(timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-c.done:
	case <-t.C:
		c.kill()
		return fmt.Errorf("%s still running after %v; killed", c.name, timeout)
	}
	var ee *exec.ExitError
	if errors.As(c.err, &ee) {
		return fmt.Errorf("%s failed (%v): %s", c.name, c.err, c.stderr)
	}
	return c.err
}

// terminate asks the child to stop with SIGTERM and waits for it. A
// child that dies of the signal, because it arrived before the child
// installed its handler, has stopped as asked.
func (c *child) terminate() error {
	select {
	case <-c.done:
		return nil
	default:
	}
	// Signal errors only mean the process is already gone; wait reaps it.
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	err := c.wait(10 * time.Second)
	var ee *exec.ExitError
	if errors.As(c.err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return err
}

// kill ends the child at once and reaps it. Safe to call repeatedly.
func (c *child) kill() {
	select {
	case <-c.done:
		return
	default:
	}
	_ = c.cmd.Process.Kill() // an error means it already exited
	<-c.done
}

// server is a running metadns.
type server struct {
	*child
	mu            sync.Mutex
	udp, tcp, obs string
}

// startServer runs metadns at its default datapath settings on cpus,
// listening on ephemeral loopback ports, and waits until it reports its
// listeners. With traced, it also serves its observability endpoint.
func startServer(bin string, cpus []int, zoneArgs []string, traced bool) (*server, error) {
	s := &server{}
	ready := func(l string) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if a, ok := strings.CutPrefix(l, "udp listening on "); ok {
			s.udp = a
		}
		if a, ok := strings.CutPrefix(l, "tcp listening on "); ok {
			s.tcp = a
		}
		if a, ok := strings.CutPrefix(l, "observability on http://"); ok {
			s.obs = strings.TrimSuffix(a, "/metrics")
		}
		return s.udp != "" && s.tcp != "" && (s.obs != "" || !traced)
	}
	args := []string{"-udp", "127.0.0.1:0", "-tcp", "127.0.0.1:0"}
	if traced {
		args = append(args, "-obs-listen", "127.0.0.1:0")
	}
	args = append(args, zoneArgs...)
	c, err := startChild("metadns", cpus, nil, ready, bin, args...)
	if err != nil {
		return nil, err
	}
	s.child = c
	if err := c.waitReady(60 * time.Second); err != nil {
		return nil, err
	}
	return s, nil
}

// client is a running replay process waiting for its start signal.
type client struct {
	*child
	start io.WriteCloser
}

// startClient launches the replay process on cpus and waits until its
// engine is created.
func startClient(self string, cpus []int, args ...string) (*client, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	c, err := startChild("replay client", cpus, pr, func(l string) bool { return l == "ready" }, self, append([]string{"client"}, args...)...)
	pr.Close() // the child holds its own copy
	if err != nil {
		pw.Close()
		return nil, err
	}
	if err := c.waitReady(60 * time.Second); err != nil {
		pw.Close()
		return nil, err
	}
	return &client{child: c, start: pw}, nil
}

// run starts the replay and waits for the client to finish.
func (c *client) run(timeout time.Duration) error {
	_, err := io.WriteString(c.start, "go\n")
	c.start.Close()
	if err != nil {
		c.kill()
		return fmt.Errorf("start replay: %w", err)
	}
	return c.wait(timeout)
}

// abort ends a set-up-only client without replaying.
func (c *client) abort() error {
	c.start.Close()
	return c.wait(30 * time.Second)
}
