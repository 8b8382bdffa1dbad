package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vipsim/vip/internal/serve"
	"github.com/vipsim/vip/vip"
)

const (
	// hotSetSize is the number of distinct scenarios clients repeat,
	// well under vipserve's default 256-entry result LRU.
	hotSetSize = 16
	// sweepRequests is one client sweep; one request in each is a fresh
	// scenario that misses the cache.
	sweepRequests = 50
	// serveDuration is the simulated length of a served scenario.
	serveDuration = 20 * vip.Millisecond
)

// server is an in-process vipserve on loopback with a keep-alive client
// holding one connection per benchmark client.
type server struct {
	srv    *serve.Server
	url    string
	client *http.Client
}

func startServer(workers, clients int) (*server, error) {
	srv := serve.New(serve.Config{Workers: workers, StreamInterval: -1, WarnLog: io.Discard})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	return &server{srv: srv, url: "http://" + addr, client: &http.Client{Transport: tr}}, nil
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
}

// reply is one answered POST /v1/sim.
type reply struct {
	body   []byte
	cache  string // X-Vip-Cache: hit, miss or coalesced
	stages map[string]float64
	ns     float64
}

// post submits one cell synchronously. A transport error or a non-2xx
// status fails the request.
func (s *server) post(c cell) (reply, error) {
	req, err := json.Marshal(c.request())
	if err != nil {
		return reply{}, err
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/v1/sim", "application/json", bytes.NewReader(req))
	if err != nil {
		return reply{}, fmt.Errorf("%s: %w", c.id(), err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ns := float64(time.Since(t0).Nanoseconds())
	if err != nil {
		return reply{}, fmt.Errorf("%s: reading reply: %w", c.id(), err)
	}
	if resp.StatusCode/100 != 2 {
		return reply{}, fmt.Errorf("%s: status %d: %s", c.id(), resp.StatusCode, bytes.TrimSpace(body))
	}
	return reply{body: body, cache: resp.Header.Get("X-Vip-Cache"), stages: parseStages(resp.Header.Get("X-Vip-Stages")), ns: ns}, nil
}

// postAll sends every cell once from clients concurrent clients, each
// taking the next unsent cell when its previous reply is in, and hands
// each reply to done with the time its request was sent.
func (s *server) postAll(cells []cell, clients int, done func(c cell, sent time.Time, r reply, err error)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(cells); i = int(next.Add(1) - 1) {
				t0 := time.Now()
				r, err := s.post(cells[i])
				done(cells[i], t0, r, err)
			}
		}()
	}
	wg.Wait()
}

// parseStages reads an X-Vip-Stages value such as
// "admit=0.041ms;cache=0.003ms" into milliseconds by stage.
func parseStages(h string) map[string]float64 {
	out := make(map[string]float64)
	for _, part := range strings.Split(h, ";") {
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			continue
		}
		if ms, err := strconv.ParseFloat(strings.TrimSuffix(val, "ms"), 64); err == nil {
			out[name] = ms
		}
	}
	return out
}

// cacheStats reads the result cache counters from /v1/cache/stats.
func (s *server) cacheStats() (hits, misses float64, err error) {
	resp, err := s.client.Get(s.url + "/v1/cache/stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var doc struct {
		Cache struct{ Hits, Misses float64 }
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, 0, fmt.Errorf("decoding cache stats: %w", err)
	}
	return doc.Cache.Hits, doc.Cache.Misses, nil
}

// serveBench drives an in-process vipserve as a closed loop: nproc
// clients, each sending its next request when the previous one returns,
// in sweeps of sweepRequests requests of which one is a fresh scenario
// and the rest repeat the pre-warmed hot set.
type serveBench struct {
	s       *server
	base    cell
	hot     []cell
	warm    map[string][]byte
	clients int
	seed    uint64
	fresh   atomic.Uint64
}

func newServeBench(o options) (bench, error) {
	s, err := startServer(o.nproc, o.nproc)
	if err != nil {
		return nil, err
	}
	b := &serveBench{s: s, clients: o.nproc, seed: o.seed, warm: make(map[string][]byte)}
	b.base = cell{system: vip.SystemVIP, apps: []string{"W1"}, dur: serveDuration}
	for i := 0; i < hotSetSize; i++ {
		b.hot = append(b.hot, b.base.withSeed(splitmix(o.seed, uint64(1000+i))))
	}
	// Warm the hot set: every hot scenario is simulated once, by the
	// clients in parallel, before the window opens.
	var mu sync.Mutex
	var firstErr error
	s.postAll(b.hot, b.clients, func(c cell, _ time.Time, r reply, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		b.warm[c.id()] = r.body
	})
	if firstErr != nil {
		s.close()
		return nil, fmt.Errorf("warming the hot set: %w", firstErr)
	}
	return b, nil
}

func (b *serveBench) measure(until time.Time, t *tally, v *verifier) {
	for _, c := range b.hot {
		t.check(v.check(c.id(), b.warm[c.id()]))
	}
	var wg sync.WaitGroup
	for k := 0; k < b.clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand{s: splitmix(b.seed, uint64(2000+k))}
			for {
				missAt := rng.intn(sweepRequests)
				t0 := time.Now()
				for i := 0; i < sweepRequests; i++ {
					c := b.hot[rng.intn(len(b.hot))]
					if i == missAt {
						c = b.base.withSeed(splitmix(b.seed, 1_000_000+b.fresh.Add(1)))
					}
					r, err := b.s.post(c)
					if err == nil {
						err = v.check(c.id(), r.body)
					}
					t.op(r.cache == "hit", r.ns, c.dur.Milliseconds(), err)
				}
				t.batch(float64(time.Since(t0).Nanoseconds()))
				if !time.Now().Before(until) && t.sampled() {
					return
				}
			}
		}(k)
	}
	wg.Wait()
}

func (b *serveBench) reference() ([]cell, [][]byte, error) {
	c := b.base.withSeed(defaultSeed)
	body, err := simulate(c)
	return []cell{c}, [][]byte{body}, err
}

func (b *serveBench) cells() []cell { return b.hot }
func (b *serveBench) close()        { b.s.close() }
