package labd

import (
	"encoding/json"
	"time"
)

// Event is one progress notification on a run's stream: the run's ID
// plus the lifecycle stage it entered. The SSE wire form is derived
// from the durable Record.Stages, so a stream replayed after a daemon
// restart carries exactly the bytes a live subscriber saw.
type Event struct {
	Run    string    `json:"run"`
	Stage  Status    `json:"stage"`
	At     time.Time `json:"at"`
	Detail string    `json:"detail,omitempty"`
}

// AppendSSE encodes one event in Server-Sent Events framing:
//
//	event: <stage>
//	data: {"run":...,"stage":...,"at":...}
//	<blank line>
//
// Recorded stages replayed to a late subscriber and stages that arrive
// live go through this one encoder, so a stream replayed from the
// record carries exactly the bytes a live subscriber saw.
func AppendSSE(dst []byte, ev Event) []byte {
	dst = append(dst, "event: "...)
	dst = append(dst, ev.Stage...)
	dst = append(dst, "\ndata: "...)
	b, err := json.Marshal(ev)
	if err != nil {
		// Event is plain data; this cannot fail at runtime.
		panic("labd: encode event: " + err.Error())
	}
	dst = append(dst, b...)
	return append(dst, '\n', '\n')
}

// eventsFromStages derives the event stream from a record's durable
// stage trail.
func eventsFromStages(id string, stages []Stage) []Event {
	out := make([]Event, len(stages))
	for i, st := range stages {
		out[i] = Event{Run: id, Stage: st.Stage, At: st.At, Detail: st.Detail}
	}
	return out
}

// maxStages bounds the live stages one process appends to a run
// (running, rendering, done or failed), with headroom; subscriber
// channels are buffered beyond it so a stage append never blocks on a
// slow consumer.
const maxStages = 12

// subscribers tracks live event channels per run. All methods are
// called with the server's mutex held.
type subscribers map[string][]chan Event

func (s subscribers) add(id string, ch chan Event) {
	s[id] = append(s[id], ch)
}

func (s subscribers) publish(id string, ev Event) {
	for _, ch := range s[id] {
		// Buffered to maxStages and stages are bounded, so this never
		// blocks; the guard is belt-and-braces against a logic bug.
		select {
		case ch <- ev:
		default:
		}
	}
	if ev.Stage.Terminal() {
		for _, ch := range s[id] {
			close(ch)
		}
		delete(s, id)
	}
}
