package serve

// Fuzz targets for the POST /jobs and POST /campaigns request bodies. Each
// input goes to a fresh server whose scheduler is closed, so nothing it admits
// is ever simulated. Properties: no panic; the answer is 202, 400 or 503; and
// every error answer is a {"error": ...} body. Run one with, for example,
//
//	go test -run '^$' -fuzz '^FuzzSubmitJob$' -fuzztime 15s ./internal/serve/

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// postFuzzBody posts body to path and checks the response properties.
func postFuzzBody(t *testing.T, path string, body []byte) {
	s := New(Options{Workers: 1, MaxCampaignPoints: 16})
	s.mu.Lock()
	s.sched.closed = true
	s.mu.Unlock()
	defer s.Shutdown(0)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	switch rec.Code {
	case http.StatusAccepted:
		return
	case http.StatusBadRequest, http.StatusServiceUnavailable:
	default:
		t.Fatalf("POST %s %q: HTTP %d: %s", path, body, rec.Code, rec.Body)
	}
	var eb errorBody
	dec := json.NewDecoder(rec.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&eb); err != nil || eb.Error == "" {
		t.Fatalf("POST %s %q: HTTP %d body %q is not an error body (%v)", path, body, rec.Code, rec.Body, err)
	}
}

func FuzzSubmitJob(f *testing.F) {
	for _, seed := range []string{
		`{"workloads":[{"name":"blackscholes","threads":2,"blocks":50}],"hostThreads":2}`,
		`{"preset":"small","workloads":[{"name":"fluidanimate","threads":1,"blocks":300}],"hostThreads":2,"seed":7}`,
		`{"workloads":[{"name":"blackscholes","threads":2,"blocks":1073741824}],"timeoutMillis":100}`,
		`{"workloads":[{"name":"blackscholes"}],"priority":"high"}`,
		`{"workloads":[{"name":"blackscholes"}],"priority":"urgent"}`,
		`{"preset":"tiled","tiles":4,"coreModel":"ipc1","workloads":[{"name":"stream","threads":4}],"maxInstructions":1000}`,
		`{"preset":"cray","workloads":[{"name":"blackscholes"}]}`,
		`{"workloads":[{"name":"no-such-benchmark"}]}`,
		`{"workloads":[{"name":"blackscholes","threads":-1}]}`,
		`{"workloads":[]}`,
		`{"bogus": 1}`,
		`{not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) { postFuzzBody(t, "/jobs", body) })
}

func FuzzSubmitCampaign(f *testing.F) {
	base := `{"preset":"small","workloads":[{"name":"fluidanimate","threads":1,"blocks":300}],"hostThreads":2,"seed":7}`
	for _, seed := range []string{
		`{"name":"sweep","base":` + base + `,"axes":{"seeds":[1,2,3]},"quota":1}`,
		`{"base":` + base + `,"axes":{"cores":[2,4],"seeds":[3,5]}}`,
		`{"base":` + base + `,"axes":{"seeds":[1,2,3,4,5,6]},"priority":"high","quota":4}`,
		`{"base":` + base + `,"axes":{"topologies":["ring","mesh"],"linkBytes":[8,16]}}`,
		`{"base":` + base + `,"axes":{"points":[{"cores":2},{"seed":9}]}}`,
		`{"base":` + base + `,"axes":{"seeds":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17]}}`,
		`{"base":` + base + `,"axes":{}}`,
		`{"base":` + base + `,"axes":{"seeds":[1]},"priority":"urgent"}`,
		`{"base":{"workloads":[]},"axes":{"seeds":[1]}}`,
		`{"bogus": 1}`,
		`{not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) { postFuzzBody(t, "/campaigns", body) })
}
