package server

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/grammar"
	"repro/internal/store"
	"repro/internal/treerepair"
	"repro/internal/update"
	"repro/internal/wal"
	"repro/internal/workload"
)

const testBatch = 10

// session is one test document: seed grammar plus its update stream.
type session struct {
	id  string
	g   *grammar.Grammar
	ops []update.Op
}

// sessions builds docs distinct pinned documents over the XM corpus,
// each with an inverse-seeded update stream (the examples' fixture
// recipe, shrunk to test scale).
func sessions(t testing.TB, docs, ops int) []*session {
	t.Helper()
	c, ok := datasets.ByShort("XM")
	if !ok {
		t.Fatal("no XM corpus")
	}
	out := make([]*session, docs)
	for d := 0; d < docs; d++ {
		u := c.Generate(0.05, int64(3+d))
		seq, err := workload.Updates(u, ops, 90, int64(11+d))
		if err != nil {
			t.Fatal(err)
		}
		g, _ := treerepair.Compress(seq.Seed, treerepair.Options{})
		out[d] = &session{id: fmt.Sprintf("doc-%02d", d), g: g, ops: seq.Ops}
	}
	return out
}

// serve starts a Server over a fresh in-memory fleet on a loopback
// listener and registers cleanup.
func serve(t testing.TB, ss *store.Sharded) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, ss)
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dial(t testing.TB, srv *Server) *Client {
	t.Helper()
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func encodedGrammar(t testing.TB, g *grammar.Grammar) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := grammar.Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeDifferential is the end-to-end differential the network
// front-end must pass: the same multi-document op streams applied (a)
// through concurrent wire clients against a served fleet and (b)
// directly against a ShardedStore must leave byte-identical encoded
// grammars. Run under -race this also exercises the per-connection
// goroutines against the shard write locks.
func TestServeDifferential(t *testing.T) {
	sess := sessions(t, 4, 60)

	ss := store.NewSharded(4, store.Config{Ratio: -1})
	defer ss.Close()
	srv := serve(t, ss)

	direct := store.NewSharded(4, store.Config{Ratio: -1})
	defer direct.Close()
	for _, s := range sess {
		if _, err := direct.Open(s.id, s.g.Clone()); err != nil {
			t.Fatal(err)
		}
	}

	// One client per document, opened and replayed concurrently: the
	// server must keep per-document batch order (one connection per doc)
	// while connections interleave freely.
	var wg sync.WaitGroup
	errc := make(chan error, len(sess))
	for _, s := range sess {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			cl, err := Dial(srv.Addr().String())
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			if err := cl.Open(s.id, s.g); err != nil {
				errc <- err
				return
			}
			for off := 0; off < len(s.ops); off += testBatch {
				end := min(off+testBatch, len(s.ops))
				if err := cl.Apply(s.id, s.ops[off:end]); err != nil {
					errc <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for _, s := range sess {
		for off := 0; off < len(s.ops); off += testBatch {
			end := min(off+testBatch, len(s.ops))
			if err := direct.ApplyAll(s.id, s.ops[off:end]); err != nil {
				t.Fatal(err)
			}
		}
	}

	cl := dial(t, srv)
	if err := cl.Quiesce(); err != nil {
		t.Fatal(err)
	}
	direct.Quiesce()
	for _, s := range sess {
		got, err := cl.SnapshotBytes(s.id)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := direct.Snapshot(s.id)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodedGrammar(t, dg); !bytes.Equal(got, want) {
			t.Fatalf("doc %s: served snapshot differs from direct application (%d vs %d bytes)",
				s.id, len(got), len(want))
		}
	}
}

// TestServeReads pins the read surface: point queries and label counts
// over the wire must answer exactly what the store answers directly.
func TestServeReads(t *testing.T) {
	sess := sessions(t, 1, 40)
	s := sess[0]

	ss := store.NewSharded(2, store.Config{Ratio: -1})
	defer ss.Close()
	srv := serve(t, ss)
	cl := dial(t, srv)

	if err := cl.Open(s.id, s.g); err != nil {
		t.Fatal(err)
	}
	if err := cl.Apply(s.id, s.ops); err != nil {
		t.Fatal(err)
	}
	st, ok := ss.Get(s.id)
	if !ok {
		t.Fatal("document not in store")
	}
	n, err := st.TreeSize()
	if err != nil {
		t.Fatal(err)
	}
	for _, pre := range []int64{0, 1, n / 3, n / 2, n - 1} {
		got, err := cl.PointQuery(s.id, pre)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ss.PointQuery(s.id, pre)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("PointQuery(%d) over the wire = %q, direct = %q", pre, got, want)
		}
	}
	for _, label := range []string{"a", "item", "no-such-label"} {
		got, err := cl.CountLabel(s.id, label)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ss.CountLabel(s.id, label)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("CountLabel(%q) over the wire = %v, direct = %v", label, got, want)
		}
	}
}

// TestServeDurableKillReopen puts the server in front of a durable
// fleet: batches acked over the wire must survive closing the fleet
// and recovering it from disk, byte for byte.
func TestServeDurableKillReopen(t *testing.T) {
	sess := sessions(t, 2, 40)
	dir := t.TempDir()
	cfg := store.Config{Ratio: -1, Durability: &store.Durability{Dir: dir, Fsync: wal.FsyncBatch}}

	ss, err := store.OpenSharded(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(t, ss)
	cl := dial(t, srv)
	want := make(map[string][]byte)
	for _, s := range sess {
		if err := cl.Open(s.id, s.g); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(s.ops); off += testBatch {
			end := min(off+testBatch, len(s.ops))
			if err := cl.Apply(s.id, s.ops[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := cl.SnapshotBytes(s.id)
		if err != nil {
			t.Fatal(err)
		}
		want[s.id] = snap
	}

	// Kill: front-end down, fleet closed, then recovered from disk with
	// a fresh server in front.
	srv.Close()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	ss2, err := store.OpenSharded(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	srv2 := serve(t, ss2)
	cl2 := dial(t, srv2)
	for _, s := range sess {
		got, err := cl2.SnapshotBytes(s.id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[s.id]) {
			t.Fatalf("doc %s: recovered snapshot differs from pre-kill snapshot (%d vs %d bytes)",
				s.id, len(got), len(want[s.id]))
		}
	}
}

// TestServeHostileBytes pins never-fail-open at the connection level:
// garbage, torn frames, and corrupted CRCs close the offending
// connection without a reply, and the server keeps serving others.
func TestServeHostileBytes(t *testing.T) {
	ss := store.NewSharded(1, store.Config{Ratio: -1})
	defer ss.Close()
	srv := serve(t, ss)

	hostile := [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),                             // not our protocol
		{0xff, 0xff, 0xff, 0xff, 0x7f},                               // frame length past the cap
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, // unterminated length varint
	}
	valid, err := AppendFrame(nil, []byte{reqQuiesce})
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-1] ^= 0x01
	hostile = append(hostile, flipped)
	unknown, err := AppendFrame(nil, []byte{0x7f})
	if err != nil {
		t.Fatal(err)
	}
	hostile = append(hostile, unknown)

	for i, payload := range hostile {
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(payload); err != nil {
			t.Fatalf("hostile %d: write: %v", i, err)
		}
		// Half-close so a torn frame reads as EOF rather than blocking
		// the server on bytes that will never come. The server must then
		// close without replying: the read drains to EOF with zero
		// response bytes.
		if err := c.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		n, _ := c.Read(buf)
		if n != 0 {
			t.Fatalf("hostile %d: server replied %d bytes to a protocol defect", i, n)
		}
		c.Close()
	}

	// A well-behaved client right after the hostile parade: still served.
	cl := dial(t, srv)
	if err := cl.Quiesce(); err != nil {
		t.Fatalf("server stopped serving after hostile connections: %v", err)
	}
}

// TestServeAppErrors pins the split between protocol defects and
// application errors: an unknown document travels back as an error
// response and the connection keeps serving.
func TestServeAppErrors(t *testing.T) {
	sess := sessions(t, 1, 10)
	s := sess[0]
	ss := store.NewSharded(1, store.Config{Ratio: -1})
	defer ss.Close()
	srv := serve(t, ss)
	cl := dial(t, srv)

	if _, err := cl.PointQuery("no-such-doc", 0); err == nil {
		t.Fatal("point query on unknown document succeeded")
	} else if !strings.Contains(err.Error(), "remote") {
		t.Fatalf("expected a remote error, got %v", err)
	}
	if err := cl.Open(s.id, s.g); err != nil {
		t.Fatalf("connection unusable after app error: %v", err)
	}
	if err := cl.Open(s.id, s.g); err == nil {
		t.Fatal("double open succeeded")
	}
	if err := cl.Apply(s.id, s.ops); err != nil {
		t.Fatalf("connection unusable after app error: %v", err)
	}
}
