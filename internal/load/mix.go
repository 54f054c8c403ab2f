package load

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// The Section 7.1 traffic mix over a live gsacs-server: the emergency
// responder and hazmat officer query, the main-repair contractor views its
// redacted slice, and an optional writer role mutates site data. Weights
// default to a read-heavy 70/25/5 query/view/mutate split.

// mixQuery is the Sec 7.1 aggregation shape: walk from chemical sites
// through their inventory to the stored chemicals.
const mixQuery = `SELECT ?site ?name ?chem WHERE {
  ?site a app:ChemSite .
  ?site app:hasSiteName ?name .
  ?site app:hasChemicalInfo ?info .
  ?info app:chemical ?rec .
  ?rec app:hasChemName ?chem .
}`

// mixSiteQuery is the lighter site listing the responder dashboard issues.
const mixSiteQuery = `SELECT ?site ?name WHERE {
  ?site a app:ChemSite .
  ?site app:hasSiteName ?name .
}`

// MixConfig builds the scenario arms.
type MixConfig struct {
	// BaseURL is the gsacs-server root, e.g. http://127.0.0.1:8080.
	BaseURL string
	// BaseURLs, when set, round-robins the read arms across several server
	// roots — the read replicas of a replicated deployment. Overrides
	// BaseURL. The mutate arm always addresses the first entry: in a
	// leader/follower deployment only the leader accepts writes, so list it
	// first when mutating.
	BaseURLs []string
	// Client is the shared HTTP client (default: keep-alive tuned for the
	// configured concurrency).
	Client *http.Client
	// QueryWeight, ViewWeight, MutateWeight set the mix (defaults 70/25/5;
	// MutateWeight is forced to 0 when WriterRole is empty).
	QueryWeight, ViewWeight, MutateWeight int
	// WriterRole is the role granted write access on the server
	// (gsacs-server -writer-role); empty disables the mutate arm.
	WriterRole string
	// MutateSite is the IRI the mutate arm writes hasSiteName values onto
	// (default: the first built-in scenario site).
	MutateSite string
	// Timeout bounds each request (default 10s).
	Timeout time.Duration
}

// NewClient returns an http.Client tuned for an open-loop harness with up
// to maxInFlight concurrent requests: without the idle-connection headroom,
// the transport would close and reopen sockets under burst and the harness
// would measure TCP handshakes instead of the server.
func NewClient(maxInFlight int, timeout time.Duration) *http.Client {
	if maxInFlight <= 0 {
		maxInFlight = 4096
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = maxInFlight
	tr.MaxIdleConnsPerHost = maxInFlight
	return &http.Client{Transport: tr, Timeout: timeout}
}

// ScenarioArms builds the weighted Sec 7.1 arms against cfg.BaseURL, or
// round-robin across cfg.BaseURLs.
func ScenarioArms(cfg MixConfig) ([]Arm, error) {
	bases := cfg.BaseURLs
	if len(bases) == 0 {
		if cfg.BaseURL == "" {
			return nil, fmt.Errorf("load: BaseURL required")
		}
		bases = []string{cfg.BaseURL}
	}
	for i := range bases {
		bases[i] = strings.TrimRight(bases[i], "/")
		if bases[i] == "" {
			return nil, fmt.Errorf("load: target %d is empty", i)
		}
	}
	base := bases[0]
	if cfg.QueryWeight == 0 && cfg.ViewWeight == 0 && cfg.MutateWeight == 0 {
		cfg.QueryWeight, cfg.ViewWeight, cfg.MutateWeight = 70, 25, 5
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = NewClient(0, cfg.Timeout)
	}
	if cfg.MutateSite == "" {
		cfg.MutateSite = "http://grdf.org/app#chem_site001"
	}

	// One shared cursor keeps the interleaving even across arms: with k
	// targets, every k-th read (whatever its arm) lands on the same server.
	var rr atomic.Uint64
	get := func(path string) func(ctx context.Context) (Outcome, error) {
		urls := make([]string, len(bases))
		for i, b := range bases {
			urls[i] = b + path
		}
		return func(ctx context.Context) (Outcome, error) {
			u := urls[rr.Add(1)%uint64(len(urls))]
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
			if err != nil {
				return Error, err
			}
			return classify(client.Do(req))
		}
	}

	arms := []Arm{
		// The hazmat officer's full aggregation walk: the heaviest read.
		{
			Name:   "query:Hazmat",
			Weight: cfg.QueryWeight,
			Do: get("/v1/query?role=Hazmat&q=" +
				url.QueryEscape(mixQuery)),
		},
		// The responder's site listing: lighter, but security-gated the
		// same way.
		{
			Name:   "query:EmergencyResponse",
			Weight: (cfg.QueryWeight + 1) / 2,
			Do: get("/v1/query?role=EmergencyResponse&q=" +
				url.QueryEscape(mixSiteQuery)),
		},
		// The contractor's redacted view export.
		{
			Name:   "view:MainRep",
			Weight: cfg.ViewWeight,
			Do:     get("/v1/view?role=MainRep"),
		},
	}
	if cfg.WriterRole != "" && cfg.MutateWeight > 0 {
		var seq atomic.Uint64
		u := base + "/v1/mutate?role=" + url.QueryEscape(cfg.WriterRole)
		arms = append(arms, Arm{
			Name:   "mutate:" + cfg.WriterRole,
			Weight: cfg.MutateWeight,
			Do: func(ctx context.Context) (Outcome, error) {
				n := seq.Add(1)
				body := fmt.Sprintf(
					`[{"op":"insert","triples":"<%s> <http://grdf.org/app#hasSiteName> \"loadgen-%d\" ."}]`,
					cfg.MutateSite, n)
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, u,
					strings.NewReader(body))
				if err != nil {
					return Error, err
				}
				req.Header.Set("Content-Type", "application/json")
				return classify(client.Do(req))
			},
		})
	}
	return arms, nil
}

// classify maps an HTTP exchange onto an Outcome, draining the body so the
// connection returns to the keep-alive pool.
func classify(resp *http.Response, err error) (Outcome, error) {
	if err != nil {
		return Error, err
	}
	defer resp.Body.Close()
	body, readErr := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	io.Copy(io.Discard, resp.Body)
	if readErr != nil {
		return Error, readErr
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		// Admission control refused the request on purpose. Count it as a
		// shed, not an error — the overload policy working is a different
		// finding from the server breaking.
		return Shed, nil
	case resp.StatusCode >= 500:
		return Error, fmt.Errorf("load: status %d", resp.StatusCode)
	case resp.StatusCode >= 400:
		// A 4xx under a fixed mix is a harness bug, not server load; count
		// it as an error so it cannot hide.
		return Error, fmt.Errorf("load: status %d", resp.StatusCode)
	case bytes.Contains(body, []byte(`"degraded":true`)):
		return Degraded, nil
	default:
		return OK, nil
	}
}
