package gsacs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/obs"
)

// admissionServer builds a server whose query pool holds exactly one slot
// and cannot queue or adapt — the deterministic overload fixture.
func admissionServer(t *testing.T) (*httptest.Server, *admission.Controller, *obs.Registry) {
	t.Helper()
	e, _ := scenarioEngine(t)
	reg := obs.NewRegistry()
	ctrl := admission.NewController(admission.Config{
		InitialLimit: 1,
		MinLimit:     1,
		MaxLimit:     1,
		MaxQueue:     admission.NoQueue,
		AdjustEvery:  time.Hour,
		Metrics:      reg,
	})
	srv := httptest.NewServer(NewServer(e, nil,
		WithMetrics(reg),
		WithAdmission(AdmissionConfig{Controller: ctrl, PriorityHeader: "X-Priority"})))
	t.Cleanup(srv.Close)
	return srv, ctrl, reg
}

func TestAdmissionShedEnvelope(t *testing.T) {
	srv, ctrl, _ := admissionServer(t)

	// Occupy the only query slot directly, then observe a live request shed.
	release, err := ctrl.Admit(context.Background(), admission.ClassQuery, admission.Normal)
	if err != nil {
		t.Fatalf("priming admit: %v", err)
	}
	resp, body := doReq(t, srv, http.MethodGet, "/v1/query?role=Hazmat&q=SELECT%20?s%20WHERE%20%7B%3Fs%20a%20app%3AChemSite%7D")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d body %s, want 429", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	var env struct {
		Error   string `json:"error"`
		Code    string `json:"code"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("shed body is not the uniform envelope: %v (%s)", err, body)
	}
	if env.Code != "overloaded" {
		t.Fatalf("code = %q, want overloaded", env.Code)
	}
	if env.Error == "" || env.TraceID == "" {
		t.Fatalf("envelope missing error/trace_id: %+v", env)
	}

	// Capacity returns with the slot.
	release()
	resp, body = doReq(t, srv, http.MethodGet, "/v1/roles")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d body %s", resp.StatusCode, body)
	}
}

func TestAdmissionShedVisibleInMetricsAndHealth(t *testing.T) {
	srv, ctrl, _ := admissionServer(t)
	release, err := ctrl.Admit(context.Background(), admission.ClassQuery, admission.Normal)
	if err != nil {
		t.Fatalf("priming admit: %v", err)
	}
	defer release()
	if resp, _ := doReq(t, srv, http.MethodGet, "/v1/resource?role=Hazmat&iri=x"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("resource status = %d, want 429", resp.StatusCode)
	}

	resp, body := doReq(t, srv, http.MethodGet, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if !strings.Contains(body, "grdf_admission_shed_total") {
		t.Fatal("grdf_admission_shed_total missing from exposition")
	}
	if !strings.Contains(body, "grdf_admission_limit") {
		t.Fatal("grdf_admission_limit missing from exposition")
	}

	resp, body = doReq(t, srv, http.MethodGet, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var health struct {
		Admission *admission.Status `json:"admission"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	if health.Admission == nil {
		t.Fatal("healthz missing admission block")
	}
	if health.Admission.TotalShed == 0 {
		t.Fatal("healthz admission block shows zero sheds after one")
	}
}

func TestRequestPriorityMapping(t *testing.T) {
	e, _ := scenarioEngine(t)
	s := NewServer(e, nil, WithAdmission(AdmissionConfig{
		Controller:     admission.NewController(admission.Config{}),
		PriorityHeader: "X-Priority",
	}))

	req := func(path string, hdr string) *http.Request {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		if hdr != "" {
			r.Header.Set("X-Priority", hdr)
		}
		return r
	}
	cases := []struct {
		name  string
		r     *http.Request
		class admission.Class
		want  admission.Priority
	}{
		{"plain query", req("/v1/query?role=Hazmat&q=x", ""), admission.ClassQuery, admission.Normal},
		{"emergency role rides high", req("/v1/query?role=EmergencyResponse&q=x", ""), admission.ClassQuery, admission.High},
		{"mutation rides high", req("/v1/mutate?role=SiteAdmin", ""), admission.ClassMutate, admission.High},
		{"header low wins", req("/v1/query?role=EmergencyResponse&q=x", "low"), admission.ClassQuery, admission.BestEffort},
		{"header high wins", req("/v1/view?role=MainRep", "high"), admission.ClassView, admission.High},
		{"unknown header falls through", req("/v1/mutate?role=SiteAdmin", "frobnicate"), admission.ClassMutate, admission.High},
	}
	for _, tc := range cases {
		if got := s.requestPriority(tc.r, tc.class); got != tc.want {
			t.Errorf("%s: priority = %s, want %s", tc.name, got, tc.want)
		}
	}
}
