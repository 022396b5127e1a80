package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"memento/internal/hierarchy"
	"memento/internal/lb"
)

// httpClients is the closed-loop client count: no more than the host's two
// processors.
const httpClients = 2

// httpLayer drives real HTTP through an lb.Balancer in this process: two
// keep-alive clients in a closed loop, the fleet's first agent as Observer,
// the fleet's ACL — verdicts already applied — deciding, a stub backend
// answering. net/http dwarfs the measurement plane here and the rate does not
// repeat within a tenth between identical runs, so these numbers are
// informational and appear only in the sampled fleet's traced run.
func httpLayer(it *instance, dur time.Duration, r *result) error {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer backend.Close()
	bal, err := lb.New(lb.Config{
		Backends: []string{backend.URL}, Observer: it.flt.agents[0], ACL: it.acl, TrustForwardedFor: true,
	})
	if err != nil {
		return err
	}
	front := httptest.NewServer(bal)
	defer front.Close()

	mixed := it.in.mixed()
	var wg sync.WaitGroup
	lat := make([][]float64, httpClients)
	errs := make([]error, httpClients)
	start := time.Now()
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for pos := c * len(mixed) / httpClients; time.Since(start) < dur; pos = (pos + 1) % len(mixed) {
				req, err := http.NewRequest(http.MethodGet, front.URL, nil)
				if err != nil {
					errs[c] = err
					return
				}
				req.Header.Set("X-Forwarded-For", hierarchy.FormatAddr(mixed[pos].Src, hierarchy.AddrBytes))
				t := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					errs[c] = err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lat[c] = append(lat[c], float64(time.Since(t).Nanoseconds())/1e6)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []float64
	for c := range lat {
		if errs[c] != nil {
			return fmt.Errorf("http client %d: %w", c, errs[c])
		}
		all = append(all, lat[c]...)
	}
	r.setSampled("lb.http_rps", float64(len(all))/elapsed.Seconds(), len(all))
	r.setSampled("lb.http_ms_p50", quantile(all, 0.5), len(all))
	r.set("lb.http_denied_frac", float64(bal.Denied())/float64(bal.Denied()+bal.Served()))
	return nil
}
