package yield

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"

	"socyield/internal/defects"
	"socyield/internal/logic"
	"socyield/internal/obs"
	"socyield/internal/order"
)

// ModelKey canonically identifies the compiled decision diagrams of an
// evaluation: two (system, options) pairs with equal keys compile
// bit-identical coded ROBDDs and ROMDDs, so one Reevaluator built for
// either serves both. The returned m is the truncation point the
// options resolve to — the M a shared Reevaluator must be constructed
// with (Options.ForceM/ForceMSet) so cache hits reproduce the
// uncached pipeline exactly.
//
// The key hashes everything the diagram structure depends on:
//
//   - the fault-tree structure: the output cone in a canonical
//     numbering (gate kinds, fan-in edges, input ordinals) plus the
//     declared component count C — input and component names are
//     excluded, they never reach the diagrams;
//   - the truncation point M (resolved from the defect model, ε and
//     P_L, or forced);
//   - the two ordering heuristics and the node budget;
//   - ε itself, so an entry's error-bound contract is part of its
//     identity.
//
// The per-component lethalities P_i and the defect distribution are
// deliberately NOT part of the key beyond their effect on M: the ROMDD
// is independent of them, which is exactly what makes a compiled-model
// cache effective for (λ, α) exploration against a fixed structure.
func ModelKey(sys *System, opts Options) (key string, m int, err error) {
	p, err := keyInputs(sys, opts)
	if err != nil {
		return "", 0, err
	}
	cone, err := encodeCone(sys.FaultTree)
	if err != nil {
		return "", 0, err
	}
	return hashKey(len(sys.Components), p, cone), p.m, nil
}

// KeyMemo memoises ModelKey for one fault-tree structure: it encodes
// the output cone once, and keeps each finished key by the remaining
// hashed inputs (M, the orderings, the node budget and ε). The
// truncation point is still resolved on every call, because it
// depends on the lethalities and the defect model of the call. A hit
// costs the defaults, validation and M; it neither walks the cone nor
// hashes. Safe for concurrent use.
type KeyMemo struct {
	tree  *logic.Netlist
	comps int
	// hashes, when non-nil, counts the keys this memo hashed.
	hashes *obs.Counter

	coneOnce sync.Once
	cone     []byte
	coneErr  error

	mu   sync.Mutex
	keys map[keyParams]string
}

// keyParams are the hashed inputs of a ModelKey besides the cone and
// the component count, which are fixed per KeyMemo.
type keyParams struct {
	m         int
	mvOrder   order.MVKind
	bitOrder  order.BitKind
	nodeLimit int
	epsBits   uint64
}

// maxMemoKeys bounds a KeyMemo: client-chosen ε and M could otherwise
// grow it without limit. A full memo starts over.
const maxMemoKeys = 64

// NewKeyMemo returns a ModelKey memo for the fault tree and component
// count of sys. hashes, when non-nil, counts the keys it hashes.
func NewKeyMemo(sys *System, hashes *obs.Counter) *KeyMemo {
	return &KeyMemo{tree: sys.FaultTree, comps: len(sys.Components), hashes: hashes}
}

// ModelKey returns exactly what ModelKey(sys, opts) returns: both
// resolve the hashed inputs with keyInputs and hash them with hashKey
// over the encodeCone bytes. sys must have the memo's fault tree (the
// same *logic.Netlist) and component count, as a copy of the memo's
// system with other lethalities has; any other system, and every
// system on a nil memo, is keyed without the memo.
func (k *KeyMemo) ModelKey(sys *System, opts Options) (key string, m int, err error) {
	if k == nil || sys == nil || sys.FaultTree != k.tree || len(sys.Components) != k.comps {
		return ModelKey(sys, opts)
	}
	p, err := keyInputs(sys, opts)
	if err != nil {
		return "", 0, err
	}
	k.mu.Lock()
	key, ok := k.keys[p]
	k.mu.Unlock()
	if ok {
		return key, p.m, nil
	}
	k.coneOnce.Do(func() { k.cone, k.coneErr = encodeCone(k.tree) })
	if k.coneErr != nil {
		return "", 0, k.coneErr
	}
	key = hashKey(k.comps, p, k.cone)
	k.hashes.Inc()
	k.mu.Lock()
	if k.keys == nil || len(k.keys) >= maxMemoKeys {
		k.keys = make(map[keyParams]string)
	}
	k.keys[p] = key
	k.mu.Unlock()
	return key, p.m, nil
}

// keyInputs validates sys and opts and resolves the hashed inputs of a
// model key besides the cone and the component count: the truncation
// point M (from the defect model, ε and P_L, or forced), the orderings,
// the node budget and ε.
func keyInputs(sys *System, opts Options) (keyParams, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return keyParams{}, err
	}
	if err := sys.Validate(); err != nil {
		return keyParams{}, err
	}
	lethal, err := defects.Thin(o.Defects, sys.PL())
	if err != nil {
		return keyParams{}, err
	}
	m, _, err := defects.TruncationPoint(lethal, o.Epsilon)
	if err != nil {
		return keyParams{}, err
	}
	if o.ForceMSet {
		if o.ForceM < 0 {
			return keyParams{}, errNegativeForceM(o.ForceM)
		}
		m = o.ForceM
	}
	return keyParams{m: m, mvOrder: o.MVOrder, bitOrder: o.BitOrder, nodeLimit: o.NodeLimit, epsBits: math.Float64bits(o.Epsilon)}, nil
}

type errNegativeForceM int

func (e errNegativeForceM) Error() string { return "yield: forced M < 0" }

// hashKey is the SHA-256 of the versioned header, the component count,
// p and the canonical cone encoding, in hex.
func hashKey(comps int, p keyParams, cone []byte) string {
	buf := make([]byte, 0, 64)
	buf = append(buf, "socyield-model-v1"...)
	for _, v := range []uint64{uint64(comps), uint64(p.m), uint64(p.mvOrder), uint64(p.bitOrder), uint64(p.nodeLimit), p.epsBits} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	h := sha256.New()
	h.Write(buf)
	h.Write(cone)
	return hex.EncodeToString(h.Sum(nil))
}

// encodeCone returns a canonical encoding of the output cone of f:
// reachable gates renumbered in depth-first post-order (the
// deterministic order VisitDepthFirst defines), each emitted as
// (kind, payload, fan-in...) with fan-in in stored order, every value
// a little-endian uint64. Two netlists encode equal iff their output
// cones are structurally identical with identical input ordinals — the
// precise condition for the downstream pipeline to behave identically.
func encodeCone(f *logic.Netlist) ([]byte, error) {
	renum := make([]uint64, f.NumNodes())
	var next uint64
	var out []byte
	emit := func(v uint64) { out = binary.LittleEndian.AppendUint64(out, v) }
	err := f.VisitDepthFirst(func(id logic.GateID, g logic.Gate) {
		renum[id] = next
		next++
		emit(uint64(g.Kind))
		switch g.Kind {
		case logic.InputKind:
			emit(uint64(g.Ord))
		case logic.ConstKind:
			if g.Value {
				emit(1)
			} else {
				emit(0)
			}
		default:
			emit(uint64(len(g.Fanin)))
			for _, fid := range g.Fanin {
				emit(renum[fid])
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
