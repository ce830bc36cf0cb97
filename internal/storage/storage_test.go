package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"pado/internal/data"
	"pado/internal/simnet"
)

func TestLocalStoreBasics(t *testing.T) {
	s := NewLocalStore()
	s.Put("a", []byte("one"))
	s.Put("b", []byte("two"))
	if got, ok := s.Get("a"); !ok || string(got) != "one" {
		t.Errorf("Get a = %q %v", got, ok)
	}
	if s.UsedBytes() != 6 || s.Len() != 2 {
		t.Errorf("accounting: %d bytes, %d blocks", s.UsedBytes(), s.Len())
	}
	s.Put("a", []byte("replaced"))
	if s.UsedBytes() != 11 {
		t.Errorf("replace accounting: %d", s.UsedBytes())
	}
	s.Delete("a")
	if s.Has("a") || s.UsedBytes() != 3 {
		t.Errorf("delete accounting: %d", s.UsedBytes())
	}
	if keys := s.Keys(); len(keys) != 1 || keys[0] != "b" {
		t.Errorf("keys = %v", keys)
	}
	s.Clear()
	if s.Len() != 0 || s.UsedBytes() != 0 {
		t.Error("clear left residue")
	}
	s.Delete("missing") // must not panic or corrupt accounting
	if s.UsedBytes() != 0 {
		t.Error("deleting missing key changed accounting")
	}
}

func TestLocalStoreConcurrent(t *testing.T) {
	s := NewLocalStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				key := fmt.Sprintf("k%d-%d", i, k)
				s.Put(key, make([]byte, 10))
				if _, ok := s.Get(key); !ok {
					t.Errorf("lost %s", key)
				}
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("len = %d", s.Len())
	}
}

// The stable-storage service is the CommitService: these tests drive the
// chunk operations Spark-checkpoint relies on (one put and one get per
// block) across several serving nodes.

func newServiceCluster(t *testing.T, nodes int, diskBW int64) (*simnet.Network, *CommitService) {
	t.Helper()
	net := simnet.New(simnet.Config{})
	var sn []*simnet.Node
	for i := 0; i < nodes; i++ {
		n, err := net.AddNode(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		sn = append(sn, n)
	}
	if _, err := net.AddNode("client"); err != nil {
		t.Fatal(err)
	}
	svc := NewCommitService(NewCommitStore(), sn, diskBW)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return net, svc
}

func newClient(net *simnet.Network, from string, svc *CommitService) *CommitClient {
	return NewCommitClient(NewDialTransport(net, from), svc.NodeIDs())
}

func TestStableServicePutGet(t *testing.T) {
	net, svc := newServiceCluster(t, 3, 0)
	c := newClient(net, "client", svc)

	blocks := map[string][]byte{}
	for i := 0; i < 20; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 100+i)
		hash, err := c.PutChunk(payload)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if hash != HashChunk(payload) {
			t.Fatalf("put %d landed under %s, want its content address", i, hash)
		}
		blocks[hash] = payload
	}
	for hash, want := range blocks {
		got, err := c.GetChunk(hash)
		if err != nil {
			t.Fatalf("get %.12s: %v", hash, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("chunk %.12s corrupted", hash)
		}
	}
	if st := svc.store.Stats(); st.Chunks != 20 || st.UsedBytes == 0 {
		t.Errorf("service stored %d chunks, %d bytes; want 20 chunks", st.Chunks, st.UsedBytes)
	}

	// The service re-verifies each chunk's address: a put claiming the
	// wrong hash is refused and stores nothing.
	var resp byte
	err := NewDialTransport(net, "client").Do("casput", "s0", func(e *data.Encoder, d *data.Decoder) error {
		if err := e.Byte(opChunkPut); err != nil {
			return err
		}
		if err := e.String(HashChunk([]byte("claimed"))); err != nil {
			return err
		}
		if err := writeChunk(e, []byte("actual")); err != nil {
			return err
		}
		if err := e.Flush(); err != nil {
			return err
		}
		var err error
		resp, err = d.Byte()
		return err
	})
	if err != nil || resp != respNo || svc.store.Stats().Chunks != 20 {
		t.Errorf("mishashed put: resp %q, err %v, %d chunks stored", resp, err, svc.store.Stats().Chunks)
	}
}

func TestStableServiceMissingBlock(t *testing.T) {
	net, svc := newServiceCluster(t, 2, 0)
	c := newClient(net, "client", svc)
	hash := HashChunk([]byte("nope"))
	_, err := c.GetChunk(hash)
	var nf ErrNotFound
	if !errors.As(err, &nf) || nf.Key != hash {
		t.Errorf("got %v, want ErrNotFound for %s", err, hash)
	}
}

// truncatedTransport hands fn a decoder over a fixed response prefix, so
// decode failures after the response byte can be provoked
// deterministically.
type truncatedTransport struct{ resp []byte }

func (t truncatedTransport) Do(_, _ string, fn func(e *data.Encoder, d *data.Decoder) error) error {
	return fn(data.NewEncoder(io.Discard), data.NewDecoder(bytes.NewReader(t.resp)))
}

// TestGetWrapsDecodeErrors: a connection that dies after the server has
// acknowledged the chunk (respOK, then truncation mid-payload) must
// surface an error carrying the address context, like every other get
// failure, and must not be mistaken for a miss.
func TestGetWrapsDecodeErrors(t *testing.T) {
	hash := HashChunk([]byte("the-block"))
	c := NewCommitClient(truncatedTransport{resp: []byte{respOK}}, []string{"s0"})
	_, err := c.GetChunk(hash)
	if err == nil {
		t.Fatal("truncated response returned no error")
	}
	if !strings.Contains(err.Error(), hash[:12]) {
		t.Errorf("decode error lost address context: %v", err)
	}
	var nf ErrNotFound
	if errors.As(err, &nf) {
		t.Errorf("truncation misreported as a miss: %v", err)
	}

	// Truncation before the response byte gets the same wrapping.
	other := HashChunk([]byte("other-block"))
	c = NewCommitClient(truncatedTransport{}, []string{"s0"})
	_, err = c.GetChunk(other)
	if err == nil || !strings.Contains(err.Error(), other[:12]) || errors.As(err, &nf) {
		t.Errorf("pre-response error lost address context: %v", err)
	}
}

// TestPoolTransportReuseAndMissAlignment: pooled streams survive many
// operations, a miss (respNo) leaves the stream aligned for the next
// operation, and concurrent use from one client is safe — including
// concurrent operations on one chunk, which share an address and a node.
func TestPoolTransportReuseAndMissAlignment(t *testing.T) {
	net, svc := newServiceCluster(t, 2, 0)
	pt := NewPoolTransport(net, "client")
	defer pt.Close()
	c := NewCommitClient(pt, svc.NodeIDs())

	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		hash, err := c.PutChunk([]byte(key))
		if err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		if _, err := c.GetChunk(HashChunk([]byte("missing-" + key))); !errors.As(err, &ErrNotFound{}) {
			t.Fatalf("miss %d: %v", i, err)
		}
		// The miss must not have desynced the pooled stream.
		got, err := c.GetChunk(hash)
		if err != nil || string(got) != key {
			t.Fatalf("get after miss: %q %v", got, err)
		}
	}
	// Sequential operations reuse one stream per destination.
	if len(pt.idle) != 2 || len(pt.idle["s0"]) != 1 || len(pt.idle["s1"]) != 1 {
		t.Errorf("pooled streams %v, want one per destination", pt.idle)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				key := fmt.Sprintf("p%d", k) // every goroutine puts the same chunks
				hash, err := c.PutChunk([]byte(key))
				if err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if got, err := c.GetChunk(hash); err != nil || string(got) != key {
					t.Errorf("get %s: %q %v", key, got, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// routeCounter records the destination of every operation it carries.
type routeCounter struct {
	Transport
	mu sync.Mutex
	to map[string]int
}

func (r *routeCounter) Do(op, to string, fn func(e *data.Encoder, d *data.Decoder) error) error {
	r.mu.Lock()
	r.to[to]++
	r.mu.Unlock()
	return r.Transport.Do(op, to, fn)
}

func TestStableServiceSpreadsBlocks(t *testing.T) {
	net, svc := newServiceCluster(t, 4, 0)
	rc := &routeCounter{Transport: NewDialTransport(net, "client"), to: make(map[string]int)}
	c := NewCommitClient(rc, svc.NodeIDs())
	for i := 0; i < 64; i++ {
		if _, err := c.PutChunk([]byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range svc.NodeIDs() {
		if rc.to[id] == 0 {
			t.Errorf("storage node %s received no blocks", id)
		}
	}
}

func TestStableServiceDiskThrottle(t *testing.T) {
	// 256KB written and read back through a single 512KB/s disk should
	// take ~0.5s; an unthrottled node moves it at link speed.
	net, svc := newServiceCluster(t, 1, 512<<10)
	c := newClient(net, "client", svc)
	payload := make([]byte, 256<<10)
	start := time.Now()
	hash, err := c.PutChunk(payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetChunk(hash); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Errorf("disk-throttled round trip took only %v", elapsed)
	}
}

func TestStableServiceDoubleStart(t *testing.T) {
	_, svc := newServiceCluster(t, 1, 0)
	if err := svc.Start(); err == nil {
		t.Error("second Start should fail")
	}
}

func TestStableServiceConcurrentClients(t *testing.T) {
	net, svc := newServiceCluster(t, 2, 0)
	for i := 0; i < 4; i++ {
		if _, err := net.AddNode(fmt.Sprintf("c%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(net, fmt.Sprintf("c%d", i), svc)
			for k := 0; k < 25; k++ {
				key := fmt.Sprintf("c%d-%d", i, k)
				hash, err := c.PutChunk([]byte(key))
				if err != nil {
					t.Errorf("put: %v", err)
					return
				}
				got, err := c.GetChunk(hash)
				if err != nil || string(got) != key {
					t.Errorf("get %s: %q %v", key, got, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
