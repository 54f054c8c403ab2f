package federation

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRemoteBodyOverLimitIsNoAnswer: a view or resource body longer than the
// read bound is no answer — never a 200 of its first bytes — so the router
// moves to the next replica, and fails when there is none. A body of exactly
// the bound is the answer, whole.
func TestRemoteBodyOverLimitIsNoAnswer(t *testing.T) {
	doc := strings.Repeat("<http://example.org/s> <http://example.org/p> 1 .\n", 4)
	asked := map[string]int{}
	peer := func(name string) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			asked[name]++
			w.Header().Set("Content-Type", "text/turtle")
			w.Header().Set("ETag", `"v1"`)
			w.Write([]byte(doc))
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	source := func(name string, limit int) *RemoteSource {
		src := NewRemoteSource(name, peer(name).URL, nil)
		src.limit = int64(limit)
		return src
	}
	for _, path := range []string{"/v1/view", "/v1/resource"} {
		clear(asked)
		fed, err := New(Config{Retry: RetryConfig{MaxAttempts: 1}}, source("short", len(doc)-1), source("whole", len(doc)))
		if err != nil {
			t.Fatal(err)
		}
		req := Request{Path: path, RawQuery: "role=MainRep"}
		for range 2 { // the rotating start asks the short source first, then the whole one
			ans, err := fed.Forward(context.Background(), req)
			if err != nil || ans.Status != http.StatusOK || string(ans.Body) != doc || ans.ETag != `"v1"` {
				t.Fatalf("%s: %+v, %v; want the whole document from the source that read it whole", path, ans, err)
			}
		}
		if asked["short"] != 1 || asked["whole"] != 2 {
			t.Fatalf("%s: sources asked %v, want short 1 and whole 2", path, asked)
		}
		fed, err = New(Config{Retry: RetryConfig{MaxAttempts: 1}}, source("short", len(doc)-1))
		if err != nil {
			t.Fatal(err)
		}
		if ans, err := fed.Forward(context.Background(), req); !errors.Is(err, ErrAllSourcesFailed) {
			t.Fatalf("%s over one replica whose body is over the bound: %+v, %v; want no answer", path, ans, err)
		}
	}
}
