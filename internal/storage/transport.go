package storage

import (
	"errors"
	"sync"

	"pado/internal/data"
	"pado/internal/simnet"
)

// Response codes shared by every storage operation: respOK acknowledges
// (and precedes any payload), respNo answers a miss or a rejection and
// leaves the stream aligned for the next request.
const (
	respOK = 'K'
	respNo = 'N'
)

// Transport carries one framed request/response round to a destination
// node. The zero-infrastructure implementation is dialTransport (a fresh
// stream per operation, the historical client behavior); the runtime's
// per-node connection pool implements it too, so storage traffic can
// share pooled connections and the unified RPC policy (deadlines,
// budgeted retries, circuit breakers) with the rest of the data plane.
type Transport interface {
	// Do runs fn as one request/response round against node `to`. op is
	// a short label ("casput", "casget", ...) the transport may use to
	// account retries by cause.
	Do(op, to string, fn func(e *data.Encoder, d *data.Decoder) error) error
}

// dialTransport dials a fresh stream per operation.
type dialTransport struct {
	net  *simnet.Network
	from string
}

// NewDialTransport returns the unpooled Transport: one fresh stream per
// operation from the named node.
func NewDialTransport(net *simnet.Network, from string) Transport {
	return dialTransport{net: net, from: from}
}

// Do implements Transport.
func (t dialTransport) Do(_, to string, fn func(e *data.Encoder, d *data.Decoder) error) error {
	conn, err := t.net.Dial(t.from, to)
	if err != nil {
		return err
	}
	defer conn.Close()
	return fn(data.NewEncoder(conn), data.NewDecoder(conn))
}

// PoolTransport keeps idle streams per destination node and reuses them
// across operations, so repeated chunk traffic pays a dial per
// concurrent stream instead of one per block. An operation takes an idle
// stream to its node or dials a new one, so concurrent operations never
// queue behind each other — identical chunks share an address and hence
// a node, and a single stream per node would serialize them. A failed
// operation drops its stream — it may hold undrained response bytes —
// while protocol-level misses (ErrNotFound) leave it aligned and return
// it to the pool.
type PoolTransport struct {
	net  *simnet.Network
	from string

	mu     sync.Mutex
	idle   map[string][]*pooledStream
	closed bool
}

type pooledStream struct {
	conn *simnet.Conn
	e    *data.Encoder
	d    *data.Decoder
}

// NewPoolTransport returns a pooled Transport issuing operations from the
// named node.
func NewPoolTransport(net *simnet.Network, from string) *PoolTransport {
	return &PoolTransport{net: net, from: from, idle: make(map[string][]*pooledStream)}
}

// Do implements Transport.
func (t *PoolTransport) Do(_, to string, fn func(e *data.Encoder, d *data.Decoder) error) error {
	s, err := t.get(to)
	if err != nil {
		return err
	}
	err = fn(s.e, s.d)
	if err != nil && !isNotFound(err) {
		s.conn.Close()
		return err
	}
	t.put(to, s)
	return err
}

func (t *PoolTransport) get(to string) (*pooledStream, error) {
	t.mu.Lock()
	if idle := t.idle[to]; len(idle) > 0 {
		s := idle[len(idle)-1]
		t.idle[to] = idle[:len(idle)-1]
		t.mu.Unlock()
		return s, nil
	}
	t.mu.Unlock()
	conn, err := t.net.Dial(t.from, to)
	if err != nil {
		return nil, err
	}
	return &pooledStream{conn: conn, e: data.NewEncoder(conn), d: data.NewDecoder(conn)}, nil
}

func (t *PoolTransport) put(to string, s *pooledStream) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		s.conn.Close()
		return
	}
	t.idle[to] = append(t.idle[to], s)
}

// Close drops every idle stream; streams in use close when their
// operation ends, and later operations dial unpooled streams.
func (t *PoolTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for to, idle := range t.idle {
		for _, s := range idle {
			s.conn.Close()
		}
		delete(t.idle, to)
	}
}

// isNotFound reports whether err is a miss (ErrNotFound) rather than a
// transport or codec failure.
func isNotFound(err error) bool { return errors.Is(err, ErrNotFound{}) }
