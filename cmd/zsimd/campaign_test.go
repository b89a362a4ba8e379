package main

// Daemon-level campaign coverage: the -prewarm flag path, and a SIGTERM
// delivered mid-sweep. The drain must cancel the outstanding children, write
// a campaign-drain audit record carrying the final CampaignStatus, and
// archive the children's result rows — the audit file is what an operator
// replays to resume or post-mortem an interrupted sweep.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"zsim/internal/campaign"
	"zsim/internal/config"
	"zsim/internal/serve"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the daemon goroutine writes
// its stderr while the test reads it, so the plain buffer would race.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// smallConfigJSON serializes the validated small preset, for prewarm files.
func smallConfigJSON(t *testing.T) []byte {
	t.Helper()
	cfg := config.SmallTest()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadPrewarmConfigs(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	one := smallConfigJSON(t)

	if _, err := loadPrewarmConfigs(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatalf("missing file accepted")
	}
	if _, err := loadPrewarmConfigs(write("bad.json", []byte("{nope"))); err == nil {
		t.Fatalf("malformed JSON accepted")
	}
	if _, err := loadPrewarmConfigs(write("unknown.json", []byte(`{"definitelyNotAField":1}`))); err == nil {
		t.Fatalf("unknown fields accepted — prewarm decoding is not strict")
	}
	if _, err := loadPrewarmConfigs(write("empty.json", []byte("  []"))); err == nil {
		t.Fatalf("empty array accepted")
	}
	cfgs, err := loadPrewarmConfigs(write("one.json", one))
	if err != nil || len(cfgs) != 1 {
		t.Fatalf("single object: %d configs, err %v", len(cfgs), err)
	}
	var arr bytes.Buffer
	arr.WriteString("[")
	arr.Write(one)
	arr.WriteString(",")
	arr.Write(one)
	arr.WriteString("]")
	cfgs, err = loadPrewarmConfigs(write("two.json", arr.Bytes()))
	if err != nil || len(cfgs) != 2 {
		t.Fatalf("array form: %d configs, err %v", len(cfgs), err)
	}
}

func TestDaemonBadPrewarmExits(t *testing.T) {
	var stderr bytes.Buffer
	code := run([]string{
		"-addr", "127.0.0.1:0",
		"-prewarm", filepath.Join(t.TempDir(), "missing.json"),
	}, &stderr, nil)
	if code != 1 {
		t.Fatalf("bad -prewarm: exit %d, want 1; stderr: %s", code, stderr.String())
	}
}

func TestDaemonCampaignSIGTERMDrain(t *testing.T) {
	dir := t.TempDir()
	auditPath := filepath.Join(dir, "audit.jsonl")
	prewarmPath := filepath.Join(dir, "prewarm.json")
	if err := os.WriteFile(prewarmPath, smallConfigJSON(t), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr syncBuffer

	addrCh := make(chan net.Addr, 1)
	exitCh := make(chan int, 1)
	go func() {
		exitCh <- run([]string{
			"-addr", "127.0.0.1:0",
			"-workers", "1",
			"-queue", "8",
			"-grace", "50ms",
			"-audit", auditPath,
			"-prewarm", prewarmPath,
			"-pool-size", "2",
		}, &stderr, func(a net.Addr) { addrCh <- a })
	}()

	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never became ready; stderr: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "prewarmed 1/1") {
		t.Fatalf("prewarm not reported: %s", stderr.String())
	}

	// A sweep of endless children: only the drain can stop it.
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(&serve.CampaignRequest{
		Name: "daemon-sweep",
		Base: serve.JobRequest{
			Workloads: []serve.WorkloadSpec{{Name: "blackscholes", Threads: 1, Blocks: 1 << 30}},
		},
		Axes:  campaign.Axes{Seeds: []uint64{1, 2, 3}},
		Quota: 1,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/campaigns", "application/json", &body)
	if err != nil {
		t.Fatalf("submit campaign: %v", err)
	}
	var camp serve.CampaignStatus
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit campaign: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&camp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if camp.Points != 3 {
		t.Fatalf("campaign expanded to %d points, want 3", camp.Points)
	}

	// Wait until at least one child has been released to the queue, so the
	// SIGTERM lands mid-sweep.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/campaigns/" + camp.ID)
		if err != nil {
			t.Fatalf("poll campaign: %v", err)
		}
		var st serve.CampaignStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Released >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never released a child: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exitCh:
		if code != 0 {
			t.Fatalf("daemon exited %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon did not drain after SIGTERM; stderr: %s", stderr.String())
	}

	// The audit file must carry the campaign's full story: the submission,
	// the drain record with the final status, and the children's result rows
	// on their finish records.
	data, err := os.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	var (
		events     = make(map[string]int)
		drainBody  string
		resultRows int
	)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var rec struct {
			Event  string           `json:"event"`
			Job    string           `json:"job"`
			Detail string           `json:"detail"`
			Result *serve.ResultRow `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad audit line %q: %v", sc.Text(), err)
		}
		events[rec.Event]++
		if rec.Event == "campaign-drain" && rec.Job == camp.ID {
			drainBody = rec.Detail
		}
		if rec.Event == "finish" && rec.Result == nil {
			t.Fatalf("finish record without its result row: %s", sc.Text())
		}
		if rec.Event == "finish" && rec.Result.Campaign == camp.ID {
			resultRows++
		}
	}
	for _, want := range []string{"prewarm", "campaign", "campaign-drain", "shutdown", "drained"} {
		if events[want] == 0 {
			t.Fatalf("audit log missing %q event: %v", want, events)
		}
	}
	if events["result"] != 0 {
		t.Fatalf("audit log has %d separate result records; finish records carry the rows", events["result"])
	}
	if drainBody == "" {
		t.Fatalf("no campaign-drain record for %s in audit log:\n%s", camp.ID, data)
	}
	var final serve.CampaignStatus
	if err := json.Unmarshal([]byte(drainBody), &final); err != nil {
		t.Fatalf("campaign-drain detail is not a CampaignStatus: %v\n%s", err, drainBody)
	}
	if final.Name != "daemon-sweep" || final.Points != 3 || final.Outstanding != 0 {
		t.Fatalf("drained campaign status: %+v", final)
	}
	if resultRows == 0 {
		t.Fatalf("no result rows archived for campaign %s", camp.ID)
	}

	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatalf("daemon still serving after drain")
	}
}
