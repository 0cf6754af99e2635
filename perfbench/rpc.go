package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"time"

	"nowover"
	"nowover/internal/nownet"
	"nowover/internal/runtime"
	"nowover/internal/xrand"
)

var rpcSpec = &spec{
	name:    "rpc",
	setup:   func(seed uint64) (workload, error) { return newRPC(seed) },
	latency: "rtt",
	window:  1 << 15,
	named: []namedLatency{
		{"rtt_p50_us", "rtt", 0.50, "us", 1e3},
		{"rtt_p99_us", "rtt", 0.99, "us", 1e3},
	},
	warmSteps:   2000,
	digestSteps: 2048,
	probeEvery:  16,
	// One scheduler runs every goroutine of the round trip on one thread:
	// with two, the median round trip moved by about 15% between runs.
	procs: 1,
}

const (
	clientID nowover.NodeID = 1
	serverID nowover.NodeID = 2
	// echoType is the envelope type a reliable-mode round host sends
	// its round frames as.
	echoType = nownet.TypeRound
	// payloadPool is the number of distinct payloads a run cycles through.
	payloadPool = 1024
	// probeFrames is the number of request envelopes one probe encodes,
	// decodes and reframes.
	probeFrames = 64
	// probeChunk is the read size of the reframe probe's reader: a
	// stream of probeFrames envelopes spans several reads, so frames
	// straddle read boundaries.
	probeChunk = 1460
)

// roundPayloads are the protocol payloads a nowd member sends, by wire
// tag (internal/runtime/wire.go: commit, reveal, vote, pkValue, token)
// with their body sizes.
var roundPayloads = []struct {
	tag  byte
	body int
}{{1, 8}, {2, 16}, {3, 8}, {4, 9}, {5, 16}}

// rpcPolicy waits long enough that a loopback round trip never times out.
var rpcPolicy = nownet.RetryPolicy{Timeout: 1000, Retries: 2}

// rpc runs Node.Request echo round trips over TCPTransport on localhost:
// one client node with one outstanding request, one server node, one
// connection per direction. It uses only nownet.
type rpc struct {
	client, server *nownet.Node
	ct, st         *nownet.TCPTransport
	payloads       [][]byte
	next           int
	requests       int64
	attempts       int64
	wireBytes      int64
	replies        hash.Hash // digest of every response payload, in order

	probeBuf, probeStream     []byte
	probes                    int64
	encode, decode, reframing time.Duration
}

// newRPC draws the payloads from the seed and starts the pair.
func newRPC(seed uint64) (*rpc, error) {
	rng := xrand.New(seed ^ inputSalt)
	w := &rpc{payloads: make([][]byte, payloadPool), replies: sha256.New()}
	for i := range w.payloads {
		f, err := roundFrame(rng)
		if err != nil {
			return nil, err
		}
		w.payloads[i] = f
	}

	if err := w.start(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// roundFrame draws one round frame as a round host encodes it: the
// emission round (u32), the payload's wire tag and its body. The payload
// is a random body of a uniformly drawn type, passed through the
// program's payload codec.
func roundFrame(rng *xrand.Rand) ([]byte, error) {
	rp := roundPayloads[rng.Intn(len(roundPayloads))]
	raw := make([]byte, rp.body)
	for i := range raw {
		raw[i] = byte(rng.Uint64())
	}
	if rp.tag == 4 {
		raw[0] &= 1 // pkValue kind: broadcast or king-say
	}
	v, err := runtime.DecodePayload(rp.tag, raw)
	if err != nil {
		return nil, fmt.Errorf("round payload: %w", err)
	}
	tag, body, err := runtime.EncodePayload(v)
	if err != nil {
		return nil, fmt.Errorf("round payload: %w", err)
	}
	if tag != rp.tag || !bytes.Equal(body, raw) {
		return nil, fmt.Errorf("round payload with tag %d changed in a round trip through the codec", rp.tag)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(rng.Intn(64)))
	frame = append(frame, tag)
	return append(frame, body...), nil
}

// start brings up both transports and nodes and makes the first round
// trip, which dials both connections.
func (w *rpc) start() error {
	var err error
	if w.st, err = nownet.NewTCP(nownet.TCPConfig{}); err != nil {
		return err
	}
	if w.ct, err = nownet.NewTCP(nownet.TCPConfig{}); err != nil {
		return err
	}
	sep, err := w.st.Open(serverID)
	if err != nil {
		return err
	}
	cep, err := w.ct.Open(clientID)
	if err != nil {
		return err
	}
	w.server = nownet.NewNode(sep)
	w.server.Handle(echoType, func(n *nownet.Node, env nownet.Envelope) {
		// A failed send loses the response; the client's retry and the
		// per-response check account for it.
		_ = n.Respond(env, env.Payload)
	})
	w.server.Start()
	w.client = nownet.NewNode(cep)
	w.client.Start()
	w.ct.SetPeer(serverID, w.st.Addr())
	w.st.SetPeer(clientID, w.ct.Addr())

	first := w.payloads[0]
	resp, _, err := w.client.Request(serverID, echoType, first, rpcPolicy)
	if err != nil {
		return fmt.Errorf("first round trip: %w", err)
	}
	return checkEcho(resp, first)
}

// checkEcho verifies that a response comes from the server and echoes
// the request payload.
func checkEcho(resp nownet.Envelope, payload []byte) error {
	if resp.From != serverID {
		return fmt.Errorf("response from %v, want the server %v", resp.From, serverID)
	}
	if !bytes.Equal(resp.Payload, payload) {
		return fmt.Errorf("response payload of %d bytes does not echo the %d-byte request", len(resp.Payload), len(payload))
	}
	return nil
}

func (w *rpc) step(r *recorder) error {
	p := w.payloads[w.next%len(w.payloads)]
	w.next++
	root := r.begin("rpc.step")
	defer r.end(root)
	sp := r.begin("nownet.Node.Request")
	t0 := time.Now()
	resp, attempts, err := w.client.Request(serverID, echoType, p, rpcPolicy)
	d := time.Since(t0)
	r.end(sp)
	w.requests++
	w.attempts += int64(attempts)
	if err != nil {
		if errors.Is(err, nownet.ErrTimeout) {
			r.fail(1)
			return nil
		}
		return err
	}
	if err := checkEcho(resp, p); err != nil {
		return err
	}
	w.replies.Write(resp.Payload)
	// Request and response frames carry the same payload.
	w.wireBytes += 2 * int64(envelopeHeader+len(p))
	r.step("rtt", d, 1)
	return nil
}

// envelopeHeader is the encoded size of an envelope with no payload.
var envelopeHeader = func() int {
	b, err := nownet.Envelope{Kind: nownet.KindRequest}.Encode(nil)
	if err != nil {
		panic(err)
	}
	return len(b)
}()

// probe encodes, decodes and reframes probeFrames request envelopes
// from the run's payload pool: each envelope on its own through Encode and
// DecodeEnvelope, and all of them as one stream through a StreamDecoder
// reading probeChunk bytes at a time.
func (w *rpc) probe(r *recorder) error {
	envs := make([]nownet.Envelope, probeFrames)
	for i := range envs {
		envs[i] = nownet.Envelope{
			Kind: nownet.KindRequest, Type: echoType,
			From: clientID, To: serverID,
			MsgID:   uint64(w.next + i),
			Payload: w.payloads[(w.next+i)%payloadPool],
		}
	}

	sp := r.begin("nownet.Envelope.Encode")
	stream := w.probeStream[:0]
	t0 := time.Now()
	for _, env := range envs {
		var err error
		if stream, err = env.Encode(stream); err != nil {
			r.end(sp)
			return err
		}
	}
	t1 := time.Now()
	r.end(sp)
	w.probeStream = stream

	sp = r.begin("nownet.DecodeEnvelope")
	var decodeErr error
	rest := stream
	t2 := time.Now()
	for range envs {
		var n int
		if _, n, decodeErr = nownet.DecodeEnvelope(rest); decodeErr != nil {
			break
		}
		rest = rest[n:]
	}
	t3 := time.Now()
	r.end(sp)
	if decodeErr != nil {
		return decodeErr
	}

	sp = r.begin("nownet.StreamDecoder.Next")
	dec := nownet.NewStreamDecoder(&chunkReader{b: stream})
	got := w.probeBuf[:0]
	var reframeErr error
	t4 := time.Now()
	for range envs {
		var env nownet.Envelope
		if env, reframeErr = dec.Next(); reframeErr != nil {
			break
		}
		got = append(got, env.Payload...)
	}
	t5 := time.Now()
	r.end(sp)
	if reframeErr != nil {
		return reframeErr
	}
	w.probeBuf = got

	// The stream must reframe into the payloads it was encoded from.
	want := got[:0:0]
	for _, env := range envs {
		want = append(want, env.Payload...)
	}
	if len(rest) != 0 || !bytes.Equal(got, want) {
		return errors.New("codec probe: envelopes changed in a round trip through the codec")
	}

	w.probes += probeFrames
	w.encode += t1.Sub(t0)
	w.decode += t3.Sub(t2)
	w.reframing += t5.Sub(t4)
	return nil
}

// chunkReader returns at most probeChunk bytes per Read, like a socket
// delivering one segment at a time.
type chunkReader struct{ b []byte }

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), probeChunk)], c.b)
	c.b = c.b[n:]
	return n, nil
}

func (w *rpc) digest() string { return hex.EncodeToString(w.replies.Sum(nil)) }

func (w *rpc) check() error {
	if s := w.client.Stats(); s.ForgedResponses != 0 || s.Misrouted != 0 {
		return fmt.Errorf("client saw %d forged and %d misrouted envelopes", s.ForgedResponses, s.Misrouted)
	}
	return nil
}

func (w *rpc) layers(m map[string]float64) {
	probes := float64(w.probes)
	m["nownet.encode_ns"] = ratio(float64(w.encode.Nanoseconds()), probes)
	m["nownet.decode_ns"] = ratio(float64(w.decode.Nanoseconds()), probes)
	m["nownet.reframe_ns"] = ratio(float64(w.reframing.Nanoseconds()), probes)
	m["nownet.wire_bytes_per_req"] = ratio(float64(w.wireBytes), float64(w.requests))
	m["nownet.attempts_per_req"] = ratio(float64(w.attempts), float64(w.requests))

	cs, ss := w.client.Stats(), w.server.Stats()
	m["nownet.timeouts"] = float64(cs.Timeouts + ss.Timeouts)
	m["nownet.late"] = float64(cs.LateResponses + ss.LateResponses)
	m["nownet.forged"] = float64(cs.ForgedResponses + ss.ForgedResponses)
	m["nownet.misrouted"] = float64(cs.Misrouted + ss.Misrouted)

	var dials, redials, writeErrs, resync, dropped int64
	for _, t := range []*nownet.TCPTransport{w.ct, w.st} {
		s := t.Stats()
		dials += s.Dials
		redials += s.Redials
		writeErrs += s.WriteErrors
		resync += s.ResyncBytes
		dropped += s.DroppedNoRoute + s.DroppedUnknown
	}
	m["tcp.dials"] = float64(dials)
	m["tcp.redials"] = float64(redials)
	m["tcp.write_errors"] = float64(writeErrs)
	m["tcp.resync_bytes"] = float64(resync)
	m["tcp.dropped"] = float64(dropped)
}

// close stops both transports; each Close waits for its connection
// readers and node goroutines to exit.
func (w *rpc) close() {
	if w.ct != nil {
		w.ct.Close()
	}
	if w.st != nil {
		w.st.Close()
	}
}
