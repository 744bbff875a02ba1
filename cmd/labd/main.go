// Command labd is the attack-lab orchestrator daemon: the long-lived
// serving layer over the artifact registry (see internal/labd). It
// exposes the run API over real net/http, drains a FIFO queue through a
// bounded set of scenario fleets, persists durable run records under
// -store, streams per-run progress as SSE, and shuts down gracefully on
// SIGINT/SIGTERM — in-flight runs finish, queued runs stay durably
// queued for the next process.
//
//	labd -listen 127.0.0.1:8970 -store labd-data -fleets 2
//	curl -s localhost:8970/v1/specs
//	curl -s -X POST localhost:8970/v1/runs -d '{"spec":"flows","format":"json"}'
//	curl -s localhost:8970/v1/runs/run-000001/events   # SSE progress
//	curl -s localhost:8970/v1/runs/run-000001/artifact
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"masterparasite/internal/daemon"
	_ "masterparasite/internal/experiments" // self-registers the paper's artifacts
	"masterparasite/internal/labd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "labd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("labd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8970", "listen address")
	storeDir := fs.String("store", "labd-data", "durable run-record directory")
	fleets := fs.Int("fleets", 2, "concurrent run fleets draining the queue")
	workers := fs.Int("workers", 0, "per-run scenario pool width (0 = GOMAXPROCS)")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv, err := labd.Open(labd.Config{StoreDir: *storeDir, Fleets: *fleets, Workers: *workers})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	fmt.Fprintf(stdout, "labd listening on http://%s (store %s, %d fleets)\n", ln.Addr(), *storeDir, *fleets)
	fmt.Fprintln(stdout, "routes: /healthz /readyz /v1/specs /v1/runs /v1/runs/{id}{,/artifact,/events}")
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	return daemon.Serve(httpSrv, ln, *drain, srv.Close)
}
