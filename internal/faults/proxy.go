package faults

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/tensor"
)

// Dir names a forwarding direction through the proxy.
type Dir string

// Forwarding directions.
const (
	// DirRequest is client → server traffic.
	DirRequest Dir = "request"
	// DirResponse is server → client traffic.
	DirResponse Dir = "response"
)

// FrameSplitter reads exactly one protocol frame (raw bytes, header
// included) from r. It lets the proxy corrupt traffic at frame granularity
// without importing the protocol package: distps tests pass
// distps.ReadRawFrame. A splitter must return io.EOF only at a clean
// frame boundary.
type FrameSplitter func(r *bufio.Reader) ([]byte, error)

// ProxyConfig parameterizes a deterministic socket fault proxy.
// Probabilities are per frame in [0, 1] and are evaluated independently
// per (direction, frame index) — the decision stream is a pure hash, so a
// rerun with the same seed injects exactly the same faults no matter how
// goroutines interleave.
type ProxyConfig struct {
	Seed uint64

	// DropProb discards a frame entirely. The receiver times out waiting
	// for it.
	DropProb float64

	// DupProb forwards a frame twice back to back. A duplicated request
	// exercises server-side dedup; a duplicated response exercises the
	// client's request-id check.
	DupProb float64

	// TruncateProb forwards only a prefix of the frame and then severs the
	// connection (a half-written frame cannot be followed by anything — the
	// byte stream would desynchronize).
	TruncateProb float64

	// DelayProb stalls a frame for Delay before forwarding it.
	DelayProb float64
	Delay     time.Duration

	// KillConnAfter severs every connection after it has forwarded this
	// many frames (0 = never). Unlike the probabilistic faults it is
	// per-connection, modeling a peer that reliably dies mid-conversation.
	KillConnAfter int

	// MaxFaults caps the total number of injected faults across all
	// connections and directions (0 = unlimited). Delays do not count —
	// they perturb timing, not correctness.
	MaxFaults int

	// Sleep overrides how delays are served (tests make them instant).
	Sleep func(time.Duration)
}

// Verdict is one fault decision for one frame.
type Verdict int

// Frame verdicts, in the order the proxy checks them.
const (
	// Forward passes the frame through unchanged.
	Forward Verdict = iota
	// Drop discards the frame.
	Drop
	// Duplicate forwards the frame twice.
	Duplicate
	// Truncate forwards a prefix and severs the connection.
	Truncate
	// Delay stalls, then forwards.
	Delay
)

func (v Verdict) String() string {
	switch v {
	case Forward:
		return "forward"
	case Drop:
		return "drop"
	case Duplicate:
		return "duplicate"
	case Truncate:
		return "truncate"
	case Delay:
		return "delay"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Salts keep the per-fault decision streams independent.
const (
	dropSalt     = 0xA24BAED4963EE407
	dupSalt      = 0x9FB21C651E98DF25
	truncateSalt = 0xD6E8FEB86659FD93
	delaySalt    = 0xFF51AFD7ED558CCD
)

// ProxySchedule makes the fault decisions for a Proxy. The probabilistic
// part is a pure hash of (seed, direction, frame index); only the
// MaxFaults budget is shared mutable state, guarded by a mutex so
// concurrent connections can consult the schedule under the race detector.
type ProxySchedule struct {
	cfg ProxyConfig

	mu       sync.Mutex
	injected int
	counts   map[Verdict]int
}

// NewProxySchedule builds the decision function for cfg.
func NewProxySchedule(cfg ProxyConfig) *ProxySchedule {
	return &ProxySchedule{cfg: cfg, counts: make(map[Verdict]int)}
}

// Injected returns the total number of faults handed out (drops,
// duplicates, truncations and connection kills; not delays).
func (s *ProxySchedule) Injected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// Count returns how many times one verdict was handed out.
func (s *ProxySchedule) Count(v Verdict) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[v]
}

// charge consumes one unit of the fault budget; it reports false when the
// budget is exhausted (the caller forwards the frame unchanged instead).
func (s *ProxySchedule) charge(v Verdict) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.MaxFaults > 0 && s.injected >= s.cfg.MaxFaults {
		return false
	}
	s.injected++
	s.counts[v]++
	return true
}

// decide returns the verdict for frame `idx` flowing in direction `dir`.
// The probabilistic decision is deterministic; the budget check is the
// only shared state.
func (s *ProxySchedule) decide(dir Dir, idx int) Verdict {
	roll := func(salt uint64) float64 {
		h := s.cfg.Seed ^ salt
		for _, c := range []byte(dir) {
			h = (h ^ uint64(c)) * 0x100000001B3
		}
		h = tensor.Mix64(h ^ uint64(int64(idx)))
		return float64(h>>11) / float64(1<<53)
	}
	switch {
	case s.cfg.DropProb > 0 && roll(dropSalt) < s.cfg.DropProb:
		if s.charge(Drop) {
			return Drop
		}
	case s.cfg.DupProb > 0 && roll(dupSalt) < s.cfg.DupProb:
		if s.charge(Duplicate) {
			return Duplicate
		}
	case s.cfg.TruncateProb > 0 && roll(truncateSalt) < s.cfg.TruncateProb:
		if s.charge(Truncate) {
			return Truncate
		}
	case s.cfg.DelayProb > 0 && s.cfg.Delay > 0 && roll(delaySalt) < s.cfg.DelayProb:
		return Delay // delays are free: they do not consume budget
	}
	return Forward
}

// killConn reports whether a connection that has forwarded `frames` frames
// should now be severed, consuming budget when it fires.
func (s *ProxySchedule) killConn(frames int) bool {
	if s.cfg.KillConnAfter <= 0 || frames < s.cfg.KillConnAfter {
		return false
	}
	return s.charge(Truncate)
}

// Proxy is an in-process TCP fault injector: it listens on a loopback
// port, forwards each accepted connection to a target address, and
// corrupts the stream frame by frame according to a ProxySchedule. Tests
// point a distps client at the proxy instead of the shard and get
// deterministic drops, duplicates, truncations and connection kills
// without touching either endpoint.
type Proxy struct {
	sched    *ProxySchedule
	target   string
	split    FrameSplitter
	ln       net.Listener
	sleep    func(time.Duration)
	mu       sync.Mutex
	closed   bool
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	frameIdx struct {
		mu  sync.Mutex
		seq map[Dir]int
	}
}

// NewProxy starts a fault proxy on 127.0.0.1:0 forwarding to target.
// Frames are delimited by split. Close the proxy to release the port.
func NewProxy(target string, split FrameSplitter, cfg ProxyConfig) (*Proxy, error) {
	if split == nil {
		return nil, fmt.Errorf("faults: proxy needs a frame splitter")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faults: proxy listen: %w", err)
	}
	p := &Proxy{
		sched:  NewProxySchedule(cfg),
		target: target,
		split:  split,
		ln:     ln,
		sleep:  cfg.Sleep,
		conns:  make(map[net.Conn]struct{}),
	}
	if p.sleep == nil {
		p.sleep = time.Sleep
	}
	p.frameIdx.seq = make(map[Dir]int)
	p.wg.Add(1)
	spawn(func() {
		defer p.wg.Done()
		p.acceptLoop()
	})
	return p, nil
}

// spawn is the package's goroutine owner (see the gospawn analyzer).
func spawn(fn func()) { go fn() }

// Addr returns the proxy's listen address; dial this instead of the target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Schedule exposes the decision state (fault counts) for assertions.
func (p *Proxy) Schedule() *ProxySchedule { return p.sched }

// Close stops accepting, severs every proxied connection, and waits for
// the forwarding goroutines to exit.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	err := p.ln.Close()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

// track registers a connection for Close; it reports false (and closes the
// connection) when the proxy is already shut down.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

// nextIdx hands out the global frame index for one direction. A single
// cross-connection sequence per direction keeps the decision stream
// deterministic for the serialized request/response exchanges the distps
// client performs; concurrent connections still get a consistent (if
// interleaving-dependent) index, and the MaxFaults budget bounds total
// damage either way.
func (p *Proxy) nextIdx(dir Dir) int {
	p.frameIdx.mu.Lock()
	defer p.frameIdx.mu.Unlock()
	i := p.frameIdx.seq[dir]
	p.frameIdx.seq[dir] = i + 1
	return i
}

func (p *Proxy) acceptLoop() {
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			down.Close()
			continue
		}
		if !p.track(down) || !p.track(up) {
			down.Close()
			up.Close()
			return
		}
		pair := make(chan struct{}, 2)
		relay := func(dir Dir, src, dst net.Conn) {
			p.wg.Add(1)
			spawn(func() {
				defer p.wg.Done()
				p.relay(dir, src, dst)
				// Severing one direction severs the conversation: a
				// request/response protocol cannot survive half a pipe.
				pair <- struct{}{}
			})
		}
		relay(DirRequest, down, up)
		relay(DirResponse, up, down)
		p.wg.Add(1)
		spawn(func() {
			defer p.wg.Done()
			<-pair
			p.untrack(down)
			p.untrack(up)
		})
	}
}

// relay forwards frames from src to dst, applying the schedule to each.
func (p *Proxy) relay(dir Dir, src, dst net.Conn) {
	br := bufio.NewReader(src)
	forwarded := 0
	for {
		frame, err := p.split(br)
		if err != nil {
			return // peer closed or mid-frame cut; the pair teardown handles it
		}
		switch p.sched.decide(dir, p.nextIdx(dir)) {
		case Drop:
			continue
		case Duplicate:
			if !p.write(dst, frame) || !p.write(dst, frame) {
				return
			}
		case Truncate:
			// Forward a strict prefix, then sever: the receiver sees a
			// torn frame and must treat the connection as poisoned.
			cut := len(frame) / 2
			if cut == 0 {
				cut = 1
			}
			dst.Write(frame[:cut])
			return
		case Delay:
			p.sleep(p.sched.cfg.Delay)
			if !p.write(dst, frame) {
				return
			}
		default:
			if !p.write(dst, frame) {
				return
			}
		}
		forwarded++
		if p.sched.killConn(forwarded) {
			return
		}
	}
}

func (p *Proxy) write(dst io.Writer, frame []byte) bool {
	_, err := dst.Write(frame)
	return err == nil
}
