package dp

import (
	"math"
)

// SparseVector implements the above-noisy-threshold test that DP-ANT
// (Algorithm 3) is built on. One instance answers a sequence of "is the
// running count approximately above θ yet?" questions and halts at the first
// positive answer; DP-ANT re-instantiates it after every synchronization,
// which composes in parallel across the disjoint inter-sync windows.
//
// The noise scales follow Algorithm 3 exactly: the threshold is perturbed
// once with Lap(2/ε1) and each comparison uses fresh Lap(4/ε1), which makes
// the halting decision ε1-DP (Theorem 11's M'_sparse analysis).
type SparseVector struct {
	theta      float64
	thetaNoisy float64
	thresh     *Laplace
	per        *Laplace
	fired      bool
}

// NewSparseVector returns an above-noisy-threshold tester for threshold theta
// with privacy parameter eps1.
func NewSparseVector(eps1, theta float64, src Source) (*SparseVector, error) {
	if !(eps1 > 0) || math.IsInf(eps1, 1) {
		return nil, ErrInvalidScale
	}
	if src == nil {
		src = CryptoSource{}
	}
	thresh, err := NewLaplace(2/eps1, src)
	if err != nil {
		return nil, err
	}
	per, err := NewLaplace(4/eps1, src)
	if err != nil {
		return nil, err
	}
	sv := &SparseVector{theta: theta, thresh: thresh, per: per}
	sv.reset()
	return sv, nil
}

func (sv *SparseVector) reset() {
	sv.thetaNoisy = sv.theta + sv.thresh.Sample()
	sv.fired = false
}

// Above reports whether the (sensitivity-1) count c is approximately above
// the threshold: it returns c + Lap(4/ε1) ≥ θ̃. After it returns true the
// instance has spent its budget; call Reset to start a fresh window with a
// freshly perturbed threshold.
func (sv *SparseVector) Above(c int) bool {
	if sv.fired {
		// A fired instance answering more queries would exceed its ε1
		// accounting; DP-ANT always resets first. Treat further queries as
		// a programming error surfaced deterministically.
		panic("dp: SparseVector queried after firing; call Reset")
	}
	v := sv.per.Sample()
	if float64(c)+v >= sv.thetaNoisy {
		sv.fired = true
		return true
	}
	return false
}

// Reset begins a new window: a fresh noisy threshold is drawn and the
// instance may fire again. DP-ANT calls this right after each sync (Alg 3:13).
func (sv *SparseVector) Reset() { sv.reset() }

// NoisyThreshold exposes the current θ̃ for tests and audits.
func (sv *SparseVector) NoisyThreshold() float64 { return sv.thetaNoisy }

// ANTGapBound returns the paper's Theorem 8 high-probability bound on the
// records DP-ANT may hold back beyond the current window's count:
// α = 16·(ln t + ln(2/β))/ε. Natural logarithms follow the proof in App. C.3.
func ANTGapBound(t int64, eps, beta float64) float64 {
	if t <= 0 || !(eps > 0) || !(beta > 0 && beta < 1) {
		return math.Inf(1)
	}
	return 16 * (math.Log(float64(t)) + math.Log(2/beta)) / eps
}

// TimerGapBound returns Theorem 6's bound for DP-Timer after k syncs:
// α = (2/ε)·sqrt(k·ln(1/β)).
func TimerGapBound(k int, eps, beta float64) float64 {
	if k <= 0 || !(eps > 0) || !(beta > 0 && beta < 1) {
		return math.Inf(1)
	}
	return 2 / eps * math.Sqrt(float64(k)*math.Log(1/beta))
}
