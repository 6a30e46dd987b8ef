package service

import (
	"context"
	"fmt"

	"snowbma/internal/boolfn"
	"snowbma/internal/campaign"
	"snowbma/internal/core"
	"snowbma/internal/corpus"
	"snowbma/internal/victim"
)

// exec runs one job body under the job's context. It is the default
// Engine.execFn.
func (e *Engine) exec(ctx context.Context, j *job) (any, error) {
	switch j.spec.Kind {
	case KindAttack, KindCensus:
		return e.execAttack(ctx, j)
	case KindFindLUT:
		return e.execFindLUT(ctx, j)
	case KindCampaign:
		return e.execCampaign(ctx, j)
	case KindCorpus:
		return e.execCorpus(ctx, j)
	}
	return nil, fmt.Errorf("%w: unknown kind %q", ErrSpec, j.spec.Kind)
}

// buildVictim synthesizes (or re-programs from cache) the job's victim,
// honoring cancellation around the expensive synthesis step.
func (e *Engine) buildVictim(ctx context.Context, j *job) (*victim.Victim, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrCancelled, err)
	}
	v, err := e.cache.Build(j.spec.Victim.Config())
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (e *Engine) execAttack(ctx context.Context, j *job) (any, error) {
	v, err := e.buildVictim(ctx, j)
	if err != nil {
		return nil, err
	}
	atk, err := core.NewAttackCRCMode(v.Device, j.spec.IV, nil, j.spec.RecomputeCRC)
	if err != nil {
		return nil, err
	}
	atk.SetTelemetry(j.tel)
	atk.SetContext(ctx)
	var rep *core.Report
	if j.spec.Kind == KindCensus {
		rep, err = atk.RunCensusGuided()
	} else {
		rep, err = atk.Run()
	}
	if err != nil {
		return nil, err
	}
	return &AttackResult{
		Verified:    rep.Verified,
		Key:         rep.Key,
		IV:          rep.IV,
		Loads:       rep.Loads,
		Batch:       rep.Batch,
		VictimLUTs:  v.LUTs,
		VictimDepth: v.Depth,
		CriticalNs:  v.CriticalPathNs,
	}, nil
}

func (e *Engine) execFindLUT(ctx context.Context, j *job) (any, error) {
	f, err := boolfn.ParseAuto(j.spec.Expr)
	if err != nil {
		return nil, fmt.Errorf("%w: expr: %v", ErrSpec, err)
	}
	v, err := e.buildVictim(ctx, j)
	if err != nil {
		return nil, err
	}
	// The scan engine has no internal checkpoints; one pass over the
	// flash image is bounded (tens of milliseconds), so cancellation is
	// honored at the pass boundary.
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrCancelled, cerr)
	}
	s := core.NewScanner(core.FindOptions{Parallel: j.spec.Parallel})
	s.SetTelemetry(j.tel)
	s.AddFunction("f", f)
	res := s.Scan(v.Device.ReadFlash())
	matches := res.Matches["f"]
	out := make([]int, len(matches))
	for i, m := range matches {
		out[i] = m.Index
	}
	return &FindResult{Matches: out, Stats: res.Stats}, nil
}

func (e *Engine) execCampaign(ctx context.Context, j *job) (any, error) {
	cs := j.spec.Campaign
	rep, err := campaign.Run(ctx, campaign.Config{
		Runs:     cs.Runs,
		Parallel: cs.Parallel,
		Seed:     cs.Seed,
		Chaos:    cs.Chaos,
		Tel:      j.tel,
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func (e *Engine) execCorpus(ctx context.Context, j *job) (any, error) {
	cs := j.spec.Corpus
	cen, err := corpus.New(corpus.Options{
		Parallel: cs.Parallel,
		Expr:     cs.Expr,
		Tel:      j.tel,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	src := corpus.NewSeeded(corpus.SeedOptions{
		Designs: cs.Designs,
		Seed:    cs.Seed,
		Indices: cs.Indices,
		Workers: cs.Workers,
	})
	return cen.Run(ctx, src)
}
