// Package controlplane scales the Optimus gateway across processes: each
// gateway process sits behind a Proxy that shares one consistent-hash ring
// (package ring) with its peers. The ring is seeded and sized identically
// everywhere, so every proxy agrees on which peer owns a function without
// any coordination beyond the peer list. An invoke that enters at a peer
// that does not own its function is forwarded once to the owner, and the
// X-Optimus-Forwarded header stops it there; a model registration is served
// locally and mirrored to every peer, so catalogs stay identical. Deletes are
// not mirrored: DELETE /api/models/{name} removes the model from the entry
// gateway only, and a caller removing a model everywhere sends it to each
// member.
package controlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync/atomic"

	"repro/internal/ring"
)

// ForwardedHeader marks a request already routed by a peer gateway; a proxy
// seeing it serves locally instead of forwarding again, bounding every
// request to at most one hop regardless of ring churn between processes.
const ForwardedHeader = "X-Optimus-Forwarded"

// maxProxyBody bounds request bodies the proxy buffers for routing
// inspection (invoke bodies are tiny; model registrations carry graphs).
const maxProxyBody = 8 << 20

// Peer is one gateway process in a multi-gateway deployment.
type Peer struct {
	// ID is the peer's stable ring identity (must match across all
	// processes); URL is its base address.
	ID  string
	URL *url.URL
}

// Proxy fronts one gateway's handler: it owns a consistent-hash ring over
// the peer set, forwards non-owned invokes to their ring owner, and mirrors
// model registrations to every peer so catalogs stay identical.
// Every invoke for a function lands on its owner, so only the owner's
// containers warm for it. Plans are not shared: each member precomputes
// every pair of its own catalog when models register.
type Proxy struct {
	self  string
	ring  *ring.Ring
	peers map[string]*url.URL
	next  http.Handler
	// client performs forwards and mirrors; injectable for tests.
	client *http.Client

	forwards     atomic.Int64
	mirrors      atomic.Int64
	mirrorErrors atomic.Int64
}

// NewProxy fronts next (the local gateway handler) for peer set peers,
// identifying as self. The ring is seeded and sized identically on every
// process (seed, vnodes) so all proxies route alike. Returns an error when
// self is not in the peer set or IDs repeat.
func NewProxy(self string, peers []Peer, seed int64, vnodes int, next http.Handler) (*Proxy, error) {
	p := &Proxy{
		self:   self,
		ring:   ring.New(seed, vnodes),
		peers:  make(map[string]*url.URL, len(peers)),
		next:   next,
		client: http.DefaultClient,
	}
	for _, peer := range peers {
		if _, dup := p.peers[peer.ID]; dup {
			return nil, fmt.Errorf("controlplane: duplicate peer id %q", peer.ID)
		}
		if peer.URL == nil {
			return nil, fmt.Errorf("controlplane: peer %q has no URL", peer.ID)
		}
		p.peers[peer.ID] = peer.URL
		p.ring.Add(peer.ID)
	}
	if _, ok := p.peers[self]; !ok {
		return nil, fmt.Errorf("controlplane: self %q not in the peer set", self)
	}
	return p, nil
}

// ServeHTTP routes: non-owned invokes forward to the ring owner, model
// registrations mirror to every peer, ring state answers on /api/ring, and
// everything else serves locally.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/api/ring" && r.Method == http.MethodGet:
		p.handleRing(w)
	case r.URL.Path == "/api/invoke" && r.Method == http.MethodPost && r.Header.Get(ForwardedHeader) == "":
		p.routeInvoke(w, r)
	case r.URL.Path == "/api/models" && r.Method == http.MethodPost && r.Header.Get(ForwardedHeader) == "":
		p.mirrorRegister(w, r)
	default:
		p.next.ServeHTTP(w, r)
	}
}

// handleRing reports the proxy's routing view: membership, parameters and
// forwarding counters.
func (p *Proxy) handleRing(w http.ResponseWriter) {
	members := make([]string, 0, len(p.peers))
	for id := range p.peers {
		members = append(members, id)
	}
	sort.Strings(members)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"self":          p.self,
		"members":       members,
		"vnodes":        p.ring.VNodes(),
		"seed":          p.ring.Seed(),
		"forwards":      p.forwards.Load(),
		"mirrors":       p.mirrors.Load(),
		"mirror_errors": p.mirrorErrors.Load(),
	})
}

// routeInvoke decodes the invoke body just enough to learn the model name,
// then serves locally (owner or single member) or forwards to the owner.
func (p *Proxy) routeInvoke(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBody))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var req struct {
		Model string `json:"model"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.Model == "" {
		// Malformed bodies go to the local gateway for its own (consistent)
		// error response.
		p.serveLocal(w, r, body)
		return
	}
	owner, ok := p.ring.Owner(req.Model)
	if !ok || owner == p.self {
		p.serveLocal(w, r, body)
		return
	}
	p.forwards.Add(1)
	p.forward(w, r, owner, body)
}

// mirrorRegister serves the registration locally first; on success it
// replays the same body to every peer (marked forwarded, so peers do not
// mirror again). Peer failures don't fail the client's request — the mirror
// counters surface them on /api/ring and the peer re-converges on restart
// from its repository.
func (p *Proxy) mirrorRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBody))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	p.serveLocal(rec, r, body)
	if rec.status >= 300 {
		return
	}
	for _, id := range p.peerIDs() {
		if id == p.self {
			continue
		}
		p.mirrors.Add(1)
		if err := p.replay(id, r, body); err != nil {
			p.mirrorErrors.Add(1)
		}
	}
}

// peerIDs returns the peer IDs sorted, so mirror order is deterministic.
func (p *Proxy) peerIDs() []string {
	ids := make([]string, 0, len(p.peers))
	for id := range p.peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// serveLocal hands the request to the local gateway with the buffered body
// restored.
func (p *Proxy) serveLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	p.next.ServeHTTP(w, r2)
}

// forward proxies the buffered request to the named peer and copies the
// response back.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, peer string, body []byte) {
	base := p.peers[peer]
	u := *base
	u.Path = r.URL.Path
	u.RawQuery = r.URL.RawQuery
	out, err := http.NewRequestWithContext(r.Context(), r.Method, u.String(), bytes.NewReader(body))
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	out.Header = r.Header.Clone()
	out.Header.Set(ForwardedHeader, p.self)
	resp, err := p.client.Do(out)
	if err != nil {
		httpError(w, http.StatusBadGateway, fmt.Errorf("forwarding to %s: %w", peer, err))
		return
	}
	defer resp.Body.Close()
	keys := make([]string, 0, len(resp.Header))
	for k := range resp.Header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, v := range resp.Header[k] {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// replay POSTs the buffered body to the named peer at the same path.
func (p *Proxy) replay(peer string, r *http.Request, body []byte) error {
	base := p.peers[peer]
	u := *base
	u.Path = r.URL.Path
	out, err := http.NewRequest(r.Method, u.String(), bytes.NewReader(body))
	if err != nil {
		return err
	}
	out.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	out.Header.Set(ForwardedHeader, p.self)
	resp, err := p.client.Do(out)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	// A duplicate registration on the peer (409) means it already converged
	// — an earlier mirror or a shared repository got there first.
	if resp.StatusCode >= 300 && resp.StatusCode != http.StatusConflict {
		return errors.New(resp.Status)
	}
	return nil
}

// statusRecorder captures the status the local handler wrote so the mirror
// step can skip failed registrations.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
