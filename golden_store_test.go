package lmbench_test

// The golden file, served back by the service: results/simulated.db is
// published into a store over the real TCP ingestion protocol, then
// fetched over the HTTP API — and the served bytes must equal the
// committed file exactly. This pins the whole pipeline (fragmenting,
// reassembly, canonical re-encoding, content addressing, the blob
// store, conditional GET) to the same byte-identical contract the
// golden hash pins on the harness. Fast (no benchmarks run), so it is
// not -short-gated.

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	lmbench "repro"
)

func TestGoldenDBPublishServeByteIdentical(t *testing.T) {
	raw, db := committedGolden(t)

	// Publish over the real wire protocol into a fresh store.
	s, err := lmbench.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- lmbench.ServeStoreIngest(ctx, ln, s) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ingest daemon: %v", err)
		}
	}()
	m, err := lmbench.PublishRun(ctx, ln.Addr().String(), lmbench.Manifest{
		Label:       "golden",
		Machines:    db.Machines(),
		Options:     "lmreport-defaults",
		CodeVersion: "golden",
	}, db)
	if err != nil {
		t.Fatal(err)
	}

	// Fetch it back over the HTTP API: the served object must be the
	// committed file, byte for byte. (results/simulated.db is written
	// by Encode, which is canonical, and the daemon re-encodes what it
	// reassembles — so any drift anywhere in the pipeline breaks this.)
	srv := httptest.NewServer((&lmbench.StoreServer{Store: s}).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/runs/" + m.RunID + "/db")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET db: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, raw) {
		t.Fatalf("served database differs from results/simulated.db (%d vs %d bytes)", len(body), len(raw))
	}

	// And the published content hash is the file's identity: a second
	// conditional GET revalidates without a body.
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("db response carried no ETag")
	}
	req, err := http.NewRequest("GET", srv.URL+"/api/runs/"+m.RunID+"/db", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	_ = resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified || len(body2) != 0 {
		t.Errorf("conditional re-GET: status %d, %d body bytes; want bodyless 304", resp2.StatusCode, len(body2))
	}

	// Idempotence at golden scale: re-publishing the committed file
	// dedupes onto the same run.
	again, err := lmbench.PublishRun(ctx, ln.Addr().String(), lmbench.Manifest{
		Machines: db.Machines(), Options: "lmreport-defaults", CodeVersion: "golden",
	}, db)
	if err != nil {
		t.Fatal(err)
	}
	if again.RunID != m.RunID {
		t.Errorf("re-publish of the golden file produced run %s, want %s", again.RunID, m.RunID)
	}
}
