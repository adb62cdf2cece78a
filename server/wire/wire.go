// Package wire defines mpcbfd's length-prefixed binary protocol, shared
// by the server and the client so the two sides cannot drift.
//
// Every message — request or response — is one frame:
//
//	[u32 length LE][payload ...]
//
// where length counts the payload bytes only. A request payload is an
// opcode byte followed by the opcode's body; a response payload is a
// status byte followed by the status' body. All integers are
// little-endian. Keys are length-prefixed byte strings ([u32 len][bytes]);
// batches are a key count followed by that many keys.
//
// Requests: each opcode's row in one table, ops, names its body layout,
// and the layout constants show each layout's bytes. AppendRequest
// writes every form and DecodeRequestInto reads it back into the same
// Request, both by layout.
//
// Responses (status OK):
//
//	INSERT / DELETE / INSERT_BATCH:  empty
//	CONTAINS:                        [u8 bool]
//	ESTIMATE / LEN:                  [u64]
//	CONTAINS_BATCH / DELETE_BATCH:   [u32 n][u8 bool]*n
//	DUMP:                            [marshaled filter bytes]
//	WINDOW_STATS:                    [u32 G][u32 head][u64 rotations]
//	                                 [u64 spanNanos][u64 rotateEveryNanos]
//	                                 [u64 pendingExpiries][u64 items]*G
//	CREATE_NS / DROP_NS:             empty
//	LIST_NS:                         [u32 n]([u8 len][name])*n
//	NS_STATS:                        [u8 resident][u8 windowed][u64 items]
//	                                 [u64 memoryBits][u64 evictions][u64 recoveries]
//	RING_SET / IMPORT:               empty
//	RING_GET:                        [ring descriptor] (epoch 0: none installed)
//	ELASTIC_STATS:                   see AppendElasticStats
//
// The TTL ops and WINDOW_STATS are only meaningful against a daemon
// started in windowed mode (-window) or, through the NAMESPACED
// envelope, against a windowed namespace; otherwise the server answers
// them with ERR and keeps the connection usable.
//
// # Namespaces (protocol version 2)
//
// The NAMESPACED envelope addresses any data-plane request (insert,
// delete, contains, estimate, len, batches, TTL ops, window stats, dump)
// at a named namespace: an independent filter with its own geometry,
// lazily created on first mutation. The envelope wraps a complete inner
// request payload and decodes to the inner request with Request.NS set.
// A zero-length name aliases the default namespace — the filter that
// version-1 requests address — so old clients interoperate unchanged and
// new clients can envelope unconditionally. REPLICATE and the namespace
// admin ops carry their own addressing and cannot be enveloped; neither
// can a second envelope. CREATE_NS is optional (first mutation creates
// with daemon defaults) but is the only way to set per-namespace
// overrides; creating an existing namespace succeeds only if the
// resolved configuration is identical. DROP_NS discards the namespace's
// state everywhere, including replicas.
//
// # Distributed tracing (protocol version 3)
//
// The TRACE envelope prefixes any client request with a propagated
// trace identity: a 16-byte trace id plus the caller's 8-byte span id.
// It composes OUTSIDE the NAMESPACED envelope — TRACE[NAMESPACED[op]]
// is the fully dressed form — and decodes to the inner request with
// Request.TraceID/ParentSpan/Traced set. The id block is length-
// prefixed with a single byte that must be 0 (the zero-length form:
// envelope present, request untraced) or 24; TRACE cannot nest and
// REPLICATE cannot be traced. Old servers reject the unknown opcode
// with ERR and keep the connection usable; old clients simply never
// send it.
//
// Responses (status ERR): [error message bytes]. An ERR response reports
// an operation-level failure (e.g. deleting an absent key, a word
// overflow under the strict policy); the connection stays usable.
// Protocol-level violations (bad opcode, malformed body, oversized frame)
// also produce an ERR response, after which the server closes the
// connection.
//
// Responses (status READONLY): [primary address bytes]. A read-only
// replica rejects mutations with this redirect; the connection stays
// usable for reads.
//
// # Replication
//
// A REPLICATE request subscribes the connection to the primary's WAL.
// The request names the subscriber's resume position — a WAL segment
// sequence number and a byte offset into that segment — and the primary
// answers with an unbounded stream of replication frames instead of a
// single response. Each frame's payload starts with a frame-type byte
// (distinct from the response status bytes, so a leading StatusErr still
// unambiguously reports a rejected subscription):
//
//	SNAPSHOT:  [0x10][u64 seq][u64 cumRecords][u64 cumBytes][filter bytes]
//	RECORDS:   [0x11][u64 seq][u64 off][u64 cumRecords][u64 cumBytes][u32 n][raw records]
//	HEARTBEAT: [0x12][u64 seq][u64 off][u64 cumRecords][u64 cumBytes]
//
// SNAPSHOT bootstraps a subscriber whose position is unavailable (the
// segments were pruned, or the position is in the future / mid-record):
// the body is a complete marshaled filter whose state corresponds to the
// start of segment seq; the stream continues from (seq, 0). RECORDS
// carries n CRC-framed WAL records — the exact bytes of segment seq
// starting at byte off — so a subscriber can mirror the primary's
// segment files verbatim. HEARTBEAT reports the primary's current end
// position while the subscriber is caught up. The cumRecords/cumBytes
// pair on every frame is the primary's cumulative durable record/byte
// count sampled when the frame was sent — comparing it with the
// subscriber's own cumulative counters (whose baseline aligns at
// bootstrap) gives the replication lag, even mid-catch-up when the
// frame itself carries historical bytes.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Opcodes. The zero value is reserved so a zeroed buffer never parses as
// a valid request.
const (
	OpInsert        = 0x01
	OpDelete        = 0x02
	OpContains      = 0x03
	OpEstimate      = 0x04
	OpLen           = 0x05
	OpInsertBatch   = 0x06
	OpDeleteBatch   = 0x07
	OpContainsBatch = 0x08
	OpReplicate     = 0x09
	OpDump          = 0x0A
	// Window ops (meaningful only against a windowed daemon).
	OpInsertTTL      = 0x0B
	OpInsertTTLBatch = 0x0C
	OpWindowStats    = 0x0D

	// Namespace ops (protocol version 2).
	OpNsCreate = 0x0E
	OpNsDrop   = 0x0F
	OpNsList   = 0x10
	OpNsStats  = 0x11
	// OpNamespaced is an envelope, not an operation: its body is a
	// namespace name followed by a complete inner request payload, and it
	// decodes to the inner request with Request.NS set. A zero-length
	// name aliases the default namespace, so a version-2 client can send
	// every request through the envelope unconditionally.
	OpNamespaced = 0x12

	// OpTrace is the distributed-tracing envelope (protocol version 3):
	// [0x13][u8 idLen][16B trace id][8B parent span id][inner request].
	// idLen is 0 (untraced passthrough — the zero-length form, so a
	// proxy can strip or ignore tracing) or TraceIDLen+8. TRACE is
	// always the outermost envelope: it may wrap a NAMESPACED request,
	// but NAMESPACED may not wrap TRACE, TRACE may not nest, and
	// REPLICATE cannot be traced.
	OpTrace = 0x13

	// Elasticity / resharding ops (protocol version 4).
	//
	// RING_SET pushes a cluster ring descriptor (epoch, membership,
	// dual-write flag) to a node; RING_GET reads back the node's current
	// descriptor so clients and late joiners converge on the newest
	// epoch. The ring is coordination metadata, not filter state: it is
	// not WAL-logged and not a mutation, so replicas accept it too.
	OpRingSet = 0x14
	OpRingGet = 0x15
	// IMPORT hands the receiving node a complete marshaled filter
	// (Sharded or elastic chain) to absorb as frozen generation(s) of
	// its elastic filter — the snapshot-transfer half of resharding.
	// It is a WAL-logged mutation; the OK ack means the import is
	// durable, which is the handoff watermark cutover waits for.
	OpImport = 0x16
	// ELASTIC_STATS reports the elastic chain's shape (generations,
	// per-generation fill and FPR budget); meaningful only against an
	// elastic store or, enveloped, an elastic namespace.
	OpElasticStats = 0x17

	// MaxOp is the highest assigned opcode. Every opcode in (0, MaxOp]
	// has a row in ops; a table test enforces it so a future opcode
	// cannot ship unnamed.
	MaxOp = OpElasticStats
)

// layout is the shape of a request body, the one thing AppendRequest
// and DecodeRequestInto switch on. The zero layout marks an unassigned
// opcode.
type layout uint8

const (
	bodyNone       layout = iota + 1 // [op]
	bodyKey                          // [op][key]
	bodyKeys                         // [op][u32 n][key]*n
	bodyTTLKey                       // [op][u64 ttlNanos][key]
	bodyTTLKeys                      // [op][u64 ttlNanos][u32 n][key]*n
	bodyPosition                     // [op][u64 seq][u64 off]
	bodyName                         // [op][u8 nsLen][ns]
	bodyNameConfig                   // [op][u8 nsLen][ns][NsConfig block]
	bodyRing                         // [op][ring descriptor]
	bodyBlob                         // [op][marshaled filter bytes], non-empty
	envNamespaced                    // [op][u8 nsLen][ns][inner request payload]
	envTrace                         // [op][u8 idLen][16B trace id][8B parent span][inner request payload]
)

// opFlag is a row's set of properties besides its name and layout.
type opFlag uint8

const (
	mutation     opFlag = 1 << iota // the op changes filter state: see IsMutation
	inNamespaced                    // a NAMESPACED envelope may carry the op
	inTrace                         // a TRACE envelope may carry the op

	dataOp = inNamespaced | inTrace
)

// opInfo is everything the protocol knows about one opcode.
type opInfo struct {
	name  string // stable lower-case label, for metrics and error text
	body  layout
	flags opFlag
}

// ops declares every opcode once, indexed by opcode; an unassigned
// opcode's row is empty. The envelopes count as mutations for callers
// that classify a raw opcode before decoding, since an undecoded
// envelope may wrap one; a decoded request's Op is always the inner op.
// TRACE is outermost and neither envelope nests, so NAMESPACED may
// carry neither envelope and TRACE only NAMESPACED.
var ops = [MaxOp + 1]opInfo{
	OpInsert:         {"insert", bodyKey, mutation | dataOp},
	OpDelete:         {"delete", bodyKey, mutation | dataOp},
	OpContains:       {"contains", bodyKey, dataOp},
	OpEstimate:       {"estimate", bodyKey, dataOp},
	OpLen:            {"len", bodyNone, dataOp},
	OpInsertBatch:    {"insert_batch", bodyKeys, mutation | dataOp},
	OpDeleteBatch:    {"delete_batch", bodyKeys, mutation | dataOp},
	OpContainsBatch:  {"contains_batch", bodyKeys, dataOp},
	OpReplicate:      {"replicate", bodyPosition, 0},
	OpDump:           {"dump", bodyNone, dataOp},
	OpInsertTTL:      {"insert_ttl", bodyTTLKey, mutation | dataOp},
	OpInsertTTLBatch: {"insert_ttl_batch", bodyTTLKeys, mutation | dataOp},
	OpWindowStats:    {"window_stats", bodyNone, dataOp},
	OpNsCreate:       {"ns_create", bodyNameConfig, mutation | inTrace},
	OpNsDrop:         {"ns_drop", bodyName, mutation | inTrace},
	OpNsList:         {"ns_list", bodyNone, inTrace},
	OpNsStats:        {"ns_stats", bodyName, inTrace},
	OpNamespaced:     {"namespaced", envNamespaced, mutation | inTrace},
	OpTrace:          {"trace", envTrace, mutation},
	OpRingSet:        {"ring_set", bodyRing, inTrace},
	OpRingGet:        {"ring_get", bodyNone, inTrace},
	OpImport:         {"import", bodyBlob, mutation | dataOp},
	OpElasticStats:   {"elastic_stats", bodyNone, dataOp},
}

// row returns op's row in ops: the zero row for an unassigned opcode.
func row(op byte) opInfo {
	if op > MaxOp {
		return opInfo{}
	}
	return ops[op]
}

// TraceIDLen is the byte length of a trace id. A TRACE envelope's id
// block is TraceIDLen trace-id bytes followed by 8 parent-span bytes.
const TraceIDLen = 16

// MaxNamespaceLen bounds a namespace name's byte length. The wire format
// itself allows up to 255 (u8 length prefix); the tighter bound keeps
// names usable as filenames and metric label values.
const MaxNamespaceLen = 64

// ValidateNamespace checks that a namespace name is non-empty, at most
// MaxNamespaceLen bytes, and uses only [a-zA-Z0-9_.-]. Both sides
// enforce it: names are embedded in snapshot filenames and metric
// labels, so the charset is deliberately conservative.
func ValidateNamespace(name string) error {
	if len(name) == 0 {
		return errors.New("wire: empty namespace name")
	}
	if len(name) > MaxNamespaceLen {
		return fmt.Errorf("wire: namespace name %d bytes exceeds %d", len(name), MaxNamespaceLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '.', c == '-':
		default:
			return fmt.Errorf("wire: namespace name contains invalid byte 0x%02x (allowed: [a-zA-Z0-9_.-])", c)
		}
	}
	return nil
}

// Response statuses.
const (
	StatusOK  = 0x00
	StatusErr = 0x01
	// StatusReadOnly rejects a mutation on a read-only replica; the body
	// is the primary's advertised address, for client-side redirect.
	StatusReadOnly = 0x02
)

// Replication frame types (first payload byte of a stream frame sent in
// answer to OpReplicate). Offset from the status bytes so an ERR frame
// on the same stream cannot be confused with a replication frame.
const (
	RepSnapshot  = 0x10
	RepRecords   = 0x11
	RepHeartbeat = 0x12
)

// IsMutation reports whether an opcode changes filter state (and is
// therefore rejected by a read-only replica and logged to the WAL). The
// envelopes count as mutations: see ops.
func IsMutation(op byte) bool { return row(op).flags&mutation != 0 }

// DefaultMaxFrame bounds a single frame's payload (1 MiB): large enough
// for tens of thousands of typical keys per batch, small enough that one
// connection cannot balloon server memory.
const DefaultMaxFrame = 1 << 20

// ErrFrameTooLarge is returned when a peer announces a frame above the
// configured limit.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// OpName returns a stable lower-case label for an opcode, for metrics and
// error text.
func OpName(op byte) string {
	if name := row(op).name; name != "" {
		return name
	}
	return fmt.Sprintf("op_0x%02x", op)
}

// WriteFrame writes one length-prefixed frame. The caller flushes any
// buffering writer. A *bufio.Writer takes a byte-wise header path: a
// stack header array passed through the io.Writer interface escapes to
// the heap, and that one 4-byte allocation per response is what stands
// between the serving path and 0 allocs/op.
func WriteFrame(w io.Writer, payload []byte) error {
	n := uint32(len(payload))
	if bw, ok := w.(*bufio.Writer); ok {
		bw.WriteByte(byte(n))
		bw.WriteByte(byte(n >> 8))
		bw.WriteByte(byte(n >> 16))
		// bufio errors are sticky: checking the last header byte covers
		// the first three.
		if err := bw.WriteByte(byte(n >> 24)); err != nil {
			return err
		}
		_, err := bw.Write(payload)
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], n)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrameHeader reads the 4-byte little-endian length prefix. The
// *bufio.Reader path avoids a heap-escaping header array, mirroring
// WriteFrame; a clean EOF before the first byte stays io.EOF (connection
// closed between frames), a torn header is io.ErrUnexpectedEOF.
func readFrameHeader(r io.Reader) (int, error) {
	if br, ok := r.(*bufio.Reader); ok {
		var n uint32
		for i := 0; i < 4; i++ {
			b, err := br.ReadByte()
			if err != nil {
				if i > 0 && err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return 0, err
			}
			n |= uint32(b) << (8 * i)
		}
		return int(n), nil
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(hdr[:])), nil
}

// ReadFrame reads one frame into buf (reallocated when too small) and
// returns the payload. maxFrame <= 0 means DefaultMaxFrame.
func ReadFrame(r io.Reader, buf []byte, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	n, err := readFrameHeader(r)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendKey appends a length-prefixed key.
func AppendKey(dst, key []byte) []byte {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(key)))
	dst = append(dst, l[:]...)
	return append(dst, key...)
}

// AppendKeyRequest encodes a single-key request payload.
func AppendKeyRequest(dst []byte, op byte, key []byte) []byte {
	dst = append(dst, op)
	return AppendKey(dst, key)
}

// AppendBatchRequest encodes a batch request payload.
func AppendBatchRequest(dst []byte, op byte, keys [][]byte) []byte {
	return appendKeys(append(dst, op), keys)
}

// appendKeys appends a batch: [u32 n][key]*n.
func appendKeys(dst []byte, keys [][]byte) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(keys)))
	dst = append(dst, n[:]...)
	for _, k := range keys {
		dst = AppendKey(dst, k)
	}
	return dst
}

// NsConfig carries a namespace's per-tenant configuration overrides in
// CREATE_NS requests. A zero field means "use the daemon's default";
// WindowNanos > 0 makes the namespace a sliding-window filter with that
// span. The wire encoding is a fixed NsConfigSize-byte little-endian
// block.
type NsConfig struct {
	MemoryBits     uint64 // total filter memory in bits
	ExpectedItems  uint64 // expected distinct items (sizes buckets)
	HashFunctions  uint8  // k
	MemoryAccesses uint8  // paper's u (words touched per op)
	Shards         uint16 // concurrent shard count
	Seed           uint32 // base hash seed
	WindowNanos    uint64 // > 0: windowed namespace with this span
	Generations    uint16 // windowed: generation ring size
	Flags          uint8  // NsFlag* bits
}

// NsFlagElastic makes the namespace an elastic chain: the configured
// geometry becomes the seed generation and the filter grows when it
// fills. Mutually exclusive with WindowNanos > 0.
const NsFlagElastic = 1 << 0

// Elastic reports whether the NsFlagElastic bit is set.
func (c NsConfig) Elastic() bool { return c.Flags&NsFlagElastic != 0 }

// NsConfigSize is the encoded size of an NsConfig block.
const NsConfigSize = 8 + 8 + 1 + 1 + 2 + 4 + 8 + 2 + 1

// AppendNsConfig encodes an NsConfig block.
func AppendNsConfig(dst []byte, c NsConfig) []byte {
	dst = appendU64(dst, c.MemoryBits)
	dst = appendU64(dst, c.ExpectedItems)
	dst = append(dst, c.HashFunctions, c.MemoryAccesses)
	dst = append(dst, byte(c.Shards), byte(c.Shards>>8))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], c.Seed)
	dst = append(dst, u32[:]...)
	dst = appendU64(dst, c.WindowNanos)
	dst = append(dst, byte(c.Generations), byte(c.Generations>>8))
	return append(dst, c.Flags)
}

// DecodeNsConfig parses an NsConfig block from the start of b and
// returns the remaining bytes.
func DecodeNsConfig(b []byte) (NsConfig, []byte, error) {
	if len(b) < NsConfigSize {
		return NsConfig{}, nil, fmt.Errorf("wire: ns config has %d bytes, want %d", len(b), NsConfigSize)
	}
	c := NsConfig{
		MemoryBits:     binary.LittleEndian.Uint64(b[0:8]),
		ExpectedItems:  binary.LittleEndian.Uint64(b[8:16]),
		HashFunctions:  b[16],
		MemoryAccesses: b[17],
		Shards:         binary.LittleEndian.Uint16(b[18:20]),
		Seed:           binary.LittleEndian.Uint32(b[20:24]),
		WindowNanos:    binary.LittleEndian.Uint64(b[24:32]),
		Generations:    binary.LittleEndian.Uint16(b[32:34]),
		Flags:          b[34],
	}
	return c, b[NsConfigSize:], nil
}

// Request is one request: what DecodeRequestInto parses from a payload
// and AppendRequest encodes into one. Each op reads only the fields its
// layout names. A decoded request's Key, Keys, NS and Blob alias the
// frame buffer; handlers must not retain them past the request.
type Request struct {
	Op    byte
	Key   []byte   // single-key ops
	Keys  [][]byte // batch ops
	TTL   uint64   // INSERT_TTL / INSERT_TTL_BATCH: lifetime in nanoseconds
	Seq   uint64   // REPLICATE: resume segment
	Off   uint64   // REPLICATE: resume byte offset
	NS    []byte   // namespace name (nil/empty: default namespace)
	NsCfg NsConfig // CREATE_NS: configuration overrides
	Blob  []byte   // IMPORT: marshaled filter bytes
	Ring  Ring     // RING_SET: pushed ring descriptor

	// Tracing (TRACE envelope). Traced is set only by the full form;
	// the zero-length form decodes as an untraced request.
	TraceID    [TraceIDLen]byte // propagated trace id
	ParentSpan uint64           // caller's span id
	Traced     bool             // request arrived inside a full TRACE envelope
}

// AppendRequest encodes r as a request payload, the exact inverse of
// DecodeRequestInto: a set r.Traced puts the TRACE envelope outermost,
// and a non-empty r.NS wraps a data op in the NAMESPACED envelope, while
// the name layouts carry it inline. r.NS must fit the u8 length prefix
// (255 bytes); senders enforce the tighter MaxNamespaceLen.
func AppendRequest(dst []byte, r *Request) []byte {
	if r.Traced {
		dst = append(dst, OpTrace, TraceIDLen+8)
		dst = append(dst, r.TraceID[:]...)
		dst = appendU64(dst, r.ParentSpan)
	}
	body := row(r.Op).body
	if len(r.NS) > 0 && body != bodyName && body != bodyNameConfig {
		dst = appendNsName(append(dst, OpNamespaced), r.NS)
	}
	dst = append(dst, r.Op)
	switch body {
	case bodyKey:
		return AppendKey(dst, r.Key)
	case bodyKeys:
		return appendKeys(dst, r.Keys)
	case bodyTTLKey:
		return AppendKey(appendU64(dst, r.TTL), r.Key)
	case bodyTTLKeys:
		return appendKeys(appendU64(dst, r.TTL), r.Keys)
	case bodyPosition:
		return appendU64(appendU64(dst, r.Seq), r.Off)
	case bodyName:
		return appendNsName(dst, r.NS)
	case bodyNameConfig:
		return AppendNsConfig(appendNsName(dst, r.NS), r.NsCfg)
	case bodyRing:
		return AppendRing(dst, r.Ring)
	case bodyBlob:
		return append(dst, r.Blob...)
	}
	return dst
}

// CarriesTraceIDs reports whether payload opens with a TRACE envelope
// that carries ids, without decoding it: the server starts a traced
// request's span before the decode, so that the span times it too.
func CarriesTraceIDs(payload []byte) bool {
	return len(payload) > 1 && payload[0] == OpTrace && payload[1] != 0
}

func appendNsName(dst []byte, ns []byte) []byte {
	dst = append(dst, byte(len(ns)))
	return append(dst, ns...)
}

// DecodeRequest parses a request payload.
func DecodeRequest(payload []byte) (Request, error) {
	return DecodeRequestInto(payload, nil)
}

// DecodeRequestInto parses a request payload like DecodeRequest, reusing
// scratch as the backing array for batch Keys so a connection's decode
// loop stops allocating once the scratch has grown to the largest batch
// it has seen. The returned Request's Keys slice is the grown scratch:
// pass it back (req.Keys) on the next call. Like the payload itself, the
// scratch is invalidated by the next frame read.
//
// It first unwraps the envelopes, each of which admits only the ops
// whose row allows it, then reads the body by its layout.
func DecodeRequestInto(payload []byte, scratch [][]byte) (Request, error) {
	if len(payload) == 0 {
		return Request{}, errors.New("wire: empty request")
	}
	var (
		req  Request
		r    opInfo
		need opFlag // what the innermost envelope so far admits
		body = payload
		err  error
	)
envelopes:
	for {
		op := body[0]
		if r = row(op); r.body == 0 {
			return Request{}, fmt.Errorf("wire: unknown opcode 0x%02x", op)
		}
		if r.flags&need != need {
			return Request{}, fmt.Errorf("wire: %s: %s cannot be enveloped", OpName(req.Op), r.name)
		}
		req.Op, body = op, body[1:]
		switch r.body {
		case envNamespaced:
			if req.NS, body, err = readNsName(body); err != nil {
				return Request{}, fmt.Errorf("wire: namespaced: %w", err)
			}
			need = inNamespaced
		case envTrace:
			if len(body) < 1 {
				return Request{}, errors.New("wire: trace: truncated id length")
			}
			idLen := int(body[0])
			if idLen != 0 && idLen != TraceIDLen+8 {
				return Request{}, fmt.Errorf("wire: trace: id length %d, want 0 or %d", idLen, TraceIDLen+8)
			}
			if len(body) < 1+idLen {
				return Request{}, errors.New("wire: trace: truncated id block")
			}
			if idLen != 0 {
				copy(req.TraceID[:], body[1:])
				req.ParentSpan = binary.LittleEndian.Uint64(body[1+TraceIDLen:])
				req.Traced = true
			}
			body, need = body[1+idLen:], inTrace
		default:
			break envelopes
		}
		if len(body) == 0 {
			return Request{}, fmt.Errorf("wire: %s: empty inner request", r.name)
		}
	}

	if r.body == bodyTTLKey || r.body == bodyTTLKeys {
		if len(body) < 8 {
			return Request{}, fmt.Errorf("wire: %s: truncated ttl", r.name)
		}
		req.TTL, body = binary.LittleEndian.Uint64(body), body[8:]
	}
	switch r.body {
	case bodyKey, bodyTTLKey:
		req.Key, body, err = readKey(body)
	case bodyKeys, bodyTTLKeys:
		req.Keys, body, err = readKeys(body, scratch)
	case bodyPosition:
		if len(body) != 16 {
			return Request{}, fmt.Errorf("wire: %s: body has %d bytes, want 16", r.name, len(body))
		}
		req.Seq = binary.LittleEndian.Uint64(body[0:8])
		req.Off = binary.LittleEndian.Uint64(body[8:16])
		body = nil
	case bodyName:
		req.NS, body, err = readNsName(body)
	case bodyNameConfig:
		if req.NS, body, err = readNsName(body); err == nil {
			req.NsCfg, body, err = DecodeNsConfig(body)
		}
	case bodyRing:
		req.Ring, body, err = DecodeRing(body)
	case bodyBlob:
		if len(body) == 0 {
			err = errors.New("empty filter blob")
		}
		req.Blob, body = body, nil
	}
	if err != nil {
		return Request{}, fmt.Errorf("wire: %s: %w", r.name, err)
	}
	if len(body) != 0 {
		return Request{}, fmt.Errorf("wire: %s: trailing bytes", r.name)
	}
	return req, nil
}

// readKeys reads a batch, [u32 n][key]*n, into scratch's backing array.
func readKeys(b []byte, scratch [][]byte) ([][]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, errors.New("truncated count")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	// Each key costs at least its 4-byte length prefix, so the frame
	// itself bounds a plausible count.
	if n > len(b)/4+1 {
		return nil, nil, fmt.Errorf("implausible key count %d", n)
	}
	keys := scratch[:0]
	for i := 0; i < n; i++ {
		key, rest, err := readKey(b)
		if err != nil {
			return nil, nil, fmt.Errorf("key %d: %w", i, err)
		}
		keys = append(keys, key)
		b = rest
	}
	return keys, b, nil
}

// readNsName reads a [u8 len][bytes] namespace name. Length-only
// validation happens here; the charset and MaxNamespaceLen bound are
// enforced operation-level by the server (via ValidateNamespace) so a
// bad name fails one request without killing the connection.
func readNsName(b []byte) (name, rest []byte, err error) {
	if len(b) < 1 {
		return nil, nil, errors.New("truncated namespace length")
	}
	n := int(b[0])
	b = b[1:]
	if n > len(b) {
		return nil, nil, fmt.Errorf("namespace length %d exceeds body", n)
	}
	return b[:n], b[n:], nil
}

func readKey(b []byte) (key, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, errors.New("truncated key length")
	}
	n := int(binary.LittleEndian.Uint32(b[:4]))
	b = b[4:]
	if n > len(b) {
		return nil, nil, fmt.Errorf("key length %d exceeds body", n)
	}
	return b[:n], b[n:], nil
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// AppendOK begins an OK response payload.
func AppendOK(dst []byte) []byte { return append(dst, StatusOK) }

// AppendReadOnly encodes a READONLY response payload carrying the
// primary's advertised address.
func AppendReadOnly(dst []byte, primary string) []byte {
	dst = append(dst, StatusReadOnly)
	return append(dst, primary...)
}

// AppendErr encodes an ERR response payload.
func AppendErr(dst []byte, msg string) []byte {
	dst = append(dst, StatusErr)
	return append(dst, msg...)
}

// AppendBool appends a bool response field.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendU64 appends a u64 response field.
func AppendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// AppendBools appends a [u32 n][bool]*n response field.
func AppendBools(dst []byte, vs []bool) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(vs)))
	dst = append(dst, n[:]...)
	for _, v := range vs {
		dst = AppendBool(dst, v)
	}
	return dst
}

// DecodeStatus splits a response payload into its status and body.
func DecodeStatus(payload []byte) (status byte, body []byte, err error) {
	if len(payload) == 0 {
		return 0, nil, errors.New("wire: empty response")
	}
	return payload[0], payload[1:], nil
}

// DecodeBool parses a bool response body.
func DecodeBool(body []byte) (bool, error) {
	if len(body) != 1 {
		return false, fmt.Errorf("wire: bool response has %d bytes", len(body))
	}
	return body[0] != 0, nil
}

// DecodeU64 parses a u64 response body.
func DecodeU64(body []byte) (uint64, error) {
	if len(body) != 8 {
		return 0, fmt.Errorf("wire: u64 response has %d bytes", len(body))
	}
	return binary.LittleEndian.Uint64(body), nil
}

// RepFrame is a decoded replication stream frame. Data aliases the frame
// buffer; consumers must copy it before reading the next frame.
type RepFrame struct {
	Type       byte   // RepSnapshot, RepRecords, or RepHeartbeat
	Seq        uint64 // WAL segment sequence number
	Off        uint64 // byte offset into segment Seq (RepRecords/RepHeartbeat)
	CumRecords uint64 // primary's cumulative records when the frame was sent
	CumBytes   uint64 // primary's cumulative WAL bytes when the frame was sent
	NumRecords uint32 // records in Data (RepRecords only)
	Data       []byte // marshaled filter (RepSnapshot) or raw records (RepRecords)

	// SentUnixNanos is the primary's clock when a heartbeat was sent
	// (RepHeartbeat only; 0 on legacy 32-byte heartbeats). It converts
	// replication lag to the time domain: a caught-up replica's lag is
	// its receive time minus SentUnixNanos — ≈ clock skew + one network
	// hop when idle — instead of a stale "time since last apply".
	SentUnixNanos uint64
}

// AppendRepSnapshot encodes a bootstrap frame: the complete filter state
// at the start of segment seq. The stream continues from (seq, 0).
func AppendRepSnapshot(dst []byte, seq, cumRecords, cumBytes uint64, filter []byte) []byte {
	dst = append(dst, RepSnapshot)
	dst = appendU64(dst, seq)
	dst = appendU64(dst, cumRecords)
	dst = appendU64(dst, cumBytes)
	return append(dst, filter...)
}

// AppendRepRecords encodes a frame of n raw CRC-framed WAL records: the
// bytes of segment seq starting at byte off.
func AppendRepRecords(dst []byte, seq, off, cumRecords, cumBytes uint64, n uint32, raw []byte) []byte {
	dst = append(dst, RepRecords)
	dst = appendU64(dst, seq)
	dst = appendU64(dst, off)
	dst = appendU64(dst, cumRecords)
	dst = appendU64(dst, cumBytes)
	var nb [4]byte
	binary.LittleEndian.PutUint32(nb[:], n)
	dst = append(dst, nb[:]...)
	return append(dst, raw...)
}

// AppendRepHeartbeat encodes a caught-up heartbeat reporting the
// primary's current end position and send time (unix nanos). Decoders
// also accept the legacy 32-byte timestamp-less form.
func AppendRepHeartbeat(dst []byte, seq, off, cumRecords, cumBytes, sentUnixNanos uint64) []byte {
	dst = append(dst, RepHeartbeat)
	dst = appendU64(dst, seq)
	dst = appendU64(dst, off)
	dst = appendU64(dst, cumRecords)
	dst = appendU64(dst, cumBytes)
	return appendU64(dst, sentUnixNanos)
}

// DecodeRepFrame parses one replication stream frame payload.
func DecodeRepFrame(payload []byte) (RepFrame, error) {
	if len(payload) == 0 {
		return RepFrame{}, errors.New("wire: empty replication frame")
	}
	f := RepFrame{Type: payload[0]}
	body := payload[1:]
	switch f.Type {
	case RepSnapshot:
		if len(body) < 24 {
			return RepFrame{}, errors.New("wire: truncated snapshot frame")
		}
		f.Seq = binary.LittleEndian.Uint64(body[0:8])
		f.CumRecords = binary.LittleEndian.Uint64(body[8:16])
		f.CumBytes = binary.LittleEndian.Uint64(body[16:24])
		f.Data = body[24:]
	case RepRecords:
		if len(body) < 36 {
			return RepFrame{}, errors.New("wire: truncated records frame")
		}
		f.Seq = binary.LittleEndian.Uint64(body[0:8])
		f.Off = binary.LittleEndian.Uint64(body[8:16])
		f.CumRecords = binary.LittleEndian.Uint64(body[16:24])
		f.CumBytes = binary.LittleEndian.Uint64(body[24:32])
		f.NumRecords = binary.LittleEndian.Uint32(body[32:36])
		f.Data = body[36:]
		// A record costs at least its 8-byte header plus a 1-byte body, so
		// the frame itself bounds a plausible count.
		if int64(f.NumRecords) > int64(len(f.Data))/9+1 {
			return RepFrame{}, fmt.Errorf("wire: implausible record count %d for %d bytes", f.NumRecords, len(f.Data))
		}
	case RepHeartbeat:
		// 32 bytes: legacy timestamp-less heartbeat; 40: with send time.
		if len(body) != 32 && len(body) != 40 {
			return RepFrame{}, fmt.Errorf("wire: heartbeat frame has %d bytes, want 32 or 40", len(body))
		}
		f.Seq = binary.LittleEndian.Uint64(body[0:8])
		f.Off = binary.LittleEndian.Uint64(body[8:16])
		f.CumRecords = binary.LittleEndian.Uint64(body[16:24])
		f.CumBytes = binary.LittleEndian.Uint64(body[24:32])
		if len(body) == 40 {
			f.SentUnixNanos = binary.LittleEndian.Uint64(body[32:40])
		}
	default:
		return RepFrame{}, fmt.Errorf("wire: unknown replication frame type 0x%02x", f.Type)
	}
	return f, nil
}

// WindowStats is the decoded WINDOW_STATS response body: the shape and
// occupancy of a windowed daemon's generation ring.
type WindowStats struct {
	Generations      uint32   // ring size G
	Head             uint32   // current insert slot
	Rotations        uint64   // rotations since the ring was created
	SpanNanos        uint64   // configured window span
	RotateEveryNanos uint64   // span / G
	PendingExpiries  uint64   // always 0; kept so the response layout stays fixed
	GenItems         []uint64 // per-slot item counts, ring-slot order
}

// AppendWindowStats encodes a WINDOW_STATS response body.
func AppendWindowStats(dst []byte, s WindowStats) []byte {
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], s.Generations)
	dst = append(dst, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], s.Head)
	dst = append(dst, u32[:]...)
	dst = appendU64(dst, s.Rotations)
	dst = appendU64(dst, s.SpanNanos)
	dst = appendU64(dst, s.RotateEveryNanos)
	dst = appendU64(dst, s.PendingExpiries)
	for _, n := range s.GenItems {
		dst = appendU64(dst, n)
	}
	return dst
}

// DecodeWindowStats parses a WINDOW_STATS response body.
func DecodeWindowStats(body []byte) (WindowStats, error) {
	const hdr = 4 + 4 + 8 + 8 + 8 + 8
	if len(body) < hdr {
		return WindowStats{}, errors.New("wire: truncated window_stats response")
	}
	s := WindowStats{
		Generations:      binary.LittleEndian.Uint32(body[0:4]),
		Head:             binary.LittleEndian.Uint32(body[4:8]),
		Rotations:        binary.LittleEndian.Uint64(body[8:16]),
		SpanNanos:        binary.LittleEndian.Uint64(body[16:24]),
		RotateEveryNanos: binary.LittleEndian.Uint64(body[24:32]),
		PendingExpiries:  binary.LittleEndian.Uint64(body[32:40]),
	}
	rest := body[hdr:]
	if uint64(len(rest)) != uint64(s.Generations)*8 {
		return WindowStats{}, fmt.Errorf("wire: window_stats: %d trailing bytes for %d generations", len(rest), s.Generations)
	}
	s.GenItems = make([]uint64, s.Generations)
	for i := range s.GenItems {
		s.GenItems[i] = binary.LittleEndian.Uint64(rest[i*8:])
	}
	return s, nil
}

// NsStats is the decoded NS_STATS response body: one namespace's
// lifecycle and occupancy counters.
type NsStats struct {
	Resident   bool   // filter state in memory (false: evicted to its snapshot file)
	Windowed   bool   // sliding-window namespace
	Items      uint64 // element count (last marshaled count while evicted)
	MemoryBits uint64 // configured filter memory in bits
	Evictions  uint64 // times this namespace was evicted
	Recoveries uint64 // times this namespace was recovered on touch
}

// AppendNsStats encodes an NS_STATS response body.
func AppendNsStats(dst []byte, s NsStats) []byte {
	dst = AppendBool(dst, s.Resident)
	dst = AppendBool(dst, s.Windowed)
	dst = appendU64(dst, s.Items)
	dst = appendU64(dst, s.MemoryBits)
	dst = appendU64(dst, s.Evictions)
	return appendU64(dst, s.Recoveries)
}

// DecodeNsStats parses an NS_STATS response body.
func DecodeNsStats(body []byte) (NsStats, error) {
	if len(body) != 2+4*8 {
		return NsStats{}, fmt.Errorf("wire: ns_stats response has %d bytes, want %d", len(body), 2+4*8)
	}
	return NsStats{
		Resident:   body[0] != 0,
		Windowed:   body[1] != 0,
		Items:      binary.LittleEndian.Uint64(body[2:10]),
		MemoryBits: binary.LittleEndian.Uint64(body[10:18]),
		Evictions:  binary.LittleEndian.Uint64(body[18:26]),
		Recoveries: binary.LittleEndian.Uint64(body[26:34]),
	}, nil
}

// AppendNsList encodes a LIST_NS response body: [u32 n]([u8 len][name])*n.
func AppendNsList(dst []byte, names []string) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(names)))
	dst = append(dst, n[:]...)
	for _, name := range names {
		dst = append(dst, byte(len(name)))
		dst = append(dst, name...)
	}
	return dst
}

// DecodeNsList parses a LIST_NS response body.
func DecodeNsList(body []byte) ([]string, error) {
	if len(body) < 4 {
		return nil, errors.New("wire: truncated ns_list response")
	}
	n := int(binary.LittleEndian.Uint32(body[:4]))
	body = body[4:]
	// Each name costs at least its 1-byte length prefix.
	if n > len(body)+1 {
		return nil, fmt.Errorf("wire: ns_list: implausible namespace count %d", n)
	}
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name, rest, err := readNsName(body)
		if err != nil {
			return nil, fmt.Errorf("wire: ns_list name %d: %w", i, err)
		}
		names = append(names, string(name))
		body = rest
	}
	if len(body) != 0 {
		return nil, errors.New("wire: ns_list: trailing bytes")
	}
	return names, nil
}

// DecodeBools parses a [u32 n][bool]*n response body.
func DecodeBools(body []byte) ([]bool, error) {
	return DecodeBoolsInto(body, nil)
}

// DecodeBoolsInto parses a [u32 n][bool]*n response body into dst's
// backing array (grown as needed), so a caller reusing the returned
// slice across responses stops allocating once it has seen its largest
// batch.
func DecodeBoolsInto(body []byte, dst []bool) ([]bool, error) {
	if len(body) < 4 {
		return nil, errors.New("wire: truncated bools response")
	}
	n := int(binary.LittleEndian.Uint32(body[:4]))
	body = body[4:]
	if n != len(body) {
		return nil, fmt.Errorf("wire: bools response: count %d, body %d", n, len(body))
	}
	out := dst[:0]
	for i := 0; i < n; i++ {
		out = append(out, body[i] != 0)
	}
	return out, nil
}
