// Command shapeserver runs the ShapeSearch REST back-end. It registers the
// built-in demo datasets and optionally CSV files from disk, then serves
// the /api endpoints (see internal/server).
//
// Examples:
//
//	shapeserver -addr :8080
//	shapeserver -addr :8080 -load prices=prices.csv -load weather=w.csv
//
//	curl -s localhost:8080/api/datasets
//	curl -s -X POST localhost:8080/api/search -d '{
//	  "kind":"nl","query":"rising then falling",
//	  "dataset":"stocks","z":"symbol","x":"day","y":"price","k":3}'
//	curl -s -X POST 'localhost:8080/api/append?dataset=prices' \
//	  --data-binary @new_rows.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"shapesearch"
	"shapesearch/internal/gen"
	"shapesearch/internal/server"
)

// loadFlags accumulates repeated -load name=path flags.
type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }

func (l *loadFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	noDemo := flag.Bool("nodemo", false, "skip registering the built-in demo datasets")
	noCache := flag.Bool("nocache", false, "disable the server-side candidate cache")
	candidateCache := flag.Int("candidate-cache", 0,
		"candidate cache capacity in entries (0 = default 64)")
	planCache := flag.Int("plan-cache", 0,
		"compiled-plan cache capacity in entries (0 = default 128)")
	searchTimeout := flag.Duration("search-timeout", 0,
		"per-request deadline covering queueing and scoring (e.g. 5s; 0 = unbounded); expired searches return 503 + Retry-After")
	rebuildThreshold := flag.Int("index-rebuild-threshold", 0,
		"appended/patched viz count after which a cached shape index is rebuilt in the background (0 = default 1024)")
	searchConcurrency := flag.Int("search-concurrency", 0,
		"max concurrently admitted searches (0 = default: core count); arrivals beyond it queue, then shed with 429")
	searchQueueDepth := flag.Int("search-queue", 0,
		"admission queue depth across all tenants (0 = default 64); arrivals past a full queue get 429 + Retry-After")
	searchQueueWait := flag.Duration("search-queue-wait", 0,
		"queue-time budget: a request still queued after this is shed with 429 + Retry-After (0 = default 2s)")
	tenantConcurrency := flag.Int("tenant-concurrency", 0,
		"per-tenant (X-Tenant / API key) concurrent-search cap (0 = no per-tenant cap); freed slots round-robin across tenants")
	var loads loadFlags
	flag.Var(&loads, "load", "register a CSV dataset as name=path (repeatable)")
	flag.Parse()

	srv := server.New(
		server.WithCandidateCacheCapacity(*candidateCache),
		server.WithPlanCacheCapacity(*planCache),
		server.WithIndexRebuildThreshold(*rebuildThreshold),
		server.WithSearchConcurrency(*searchConcurrency),
		server.WithSearchQueueDepth(*searchQueueDepth),
		server.WithSearchQueueWait(*searchQueueWait),
		server.WithTenantConcurrency(*tenantConcurrency),
	)
	if *noCache {
		srv.DisableCache()
		log.Printf("candidate cache disabled")
	}
	if *searchTimeout > 0 {
		srv.SetSearchTimeout(*searchTimeout)
		log.Printf("per-request search timeout: %v", *searchTimeout)
	}
	if !*noDemo {
		srv.Register("stocks", gen.Stocks(60, 150, 1))
		srv.Register("genes", gen.Genes(80, 48, 1))
		srv.Register("luminosity", gen.Luminosity(40, 300, 1))
		srv.Register("cities", gen.Cities(30, 24, 1))
		log.Printf("registered demo datasets: stocks, genes, luminosity, cities")
	}
	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("shapeserver: -load wants name=path, got %q", spec)
		}
		tbl, err := shapesearch.OpenCSV(path)
		if err != nil {
			log.Fatalf("shapeserver: loading %q: %v", path, err)
		}
		srv.Register(name, tbl)
		log.Printf("registered %q from %s (%d rows)", name, path, tbl.NumRows())
	}

	log.Printf("shapeserver listening on %s", *addr)
	if err := httpServer(*addr, srv).ListenAndServe(); err != nil {
		log.Fatal(fmt.Errorf("shapeserver: %w", err))
	}
}

// Connection timeouts. Admission control bounds the requests it sees, but
// a connection is not a request until its header has arrived: without a
// header timeout a client that sends its header slowly holds a connection
// and a goroutine for as long as it likes.
const (
	// readHeaderTimeout is how long a client may take to send a request's
	// header; the connection is closed past it.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout is how long a kept-alive connection may wait for its
	// next request before it is closed.
	idleTimeout = 2 * time.Minute
)

// httpServer builds the HTTP server that serves h on addr, with the
// connection timeouts above.
func httpServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}
