// Fixture for the ctxpropagate analyzer: the executor/server cancellation
// contract. Blocking entrypoints thread ctx; context.Background() only
// inside Foo→FooContext wrappers; context.TODO() and nil contexts never.
package ctxpropagate

import "context"

// RunContext is the real entrypoint: it accepts and uses ctx. Not flagged.
func RunContext(ctx context.Context, n int) int {
	if ctx.Err() != nil {
		return 0
	}
	return n
}

// Run is the sanctioned compatibility wrapper (Foo → FooContext with
// Background as the delegation argument): not flagged.
func Run(n int) int {
	return RunContext(context.Background(), n)
}

// Todo marks an unfinished migration: always flagged.
func Todo(n int) int {
	ctx := context.TODO() // want `context\.TODO\(\) in non-test code`
	return RunContext(ctx, n)
}

// Sever has no SeverContext variant, so its Background() cuts the caller's
// cancellation chain: flagged.
func Sever(n int) int {
	return RunContext(context.Background(), n) // want `context\.Background\(\) severs cancellation`
}

// NilCtx passes a nil context where RunContext expects one: flagged.
func NilCtx(n int) int {
	return RunContext(nil, n) // want `nil context passed`
}

// DropsCtx accepts a ctx and never threads it anywhere: flagged.
func DropsCtx(ctx context.Context, n int) int { // want `never uses its ctx parameter`
	return n
}

// BlankCtx discards the parameter outright: flagged.
func BlankCtx(_ context.Context, n int) int { // want `discards its ctx parameter`
	return n
}

// Detach documents its exception: a background rebuild outliving the request
// is the one sanctioned detachment, and the ignore absorbs the report.
func Detach(n int) int {
	//lint:ignore ctxpropagate rebuild runs beyond the request lifetime by design
	return RunContext(context.Background(), n)
}

// BuildContext is a cancellable build and Build its uncancellable wrapper.
func BuildContext(ctx context.Context, n int) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return n, nil
}

func Build(n int) int {
	v, _ := BuildContext(context.Background(), n)
	return v
}

// Batch has a ctx and still calls the uncancellable Build: flagged.
func Batch(ctx context.Context, n int) int {
	if ctx.Err() != nil {
		return 0
	}
	return Build(n) // want `Build called with a ctx in scope: call BuildContext`
}

// Threaded calls the Context variant: not flagged.
func Threaded(ctx context.Context, n int) (int, error) {
	return BuildContext(ctx, n)
}

// Later runs Build in a closure that captures the ctx: flagged.
func Later(ctx context.Context, n int) func() int {
	_ = ctx.Err()
	return func() int { return Build(n) } // want `Build called with a ctx in scope`
}

// NoCtx has no ctx to thread: not flagged.
func NoCtx(n int) int {
	return Build(n)
}

// Index has a cancellable ScanContext method beside Scan.
type Index struct{ n int }

func (ix *Index) Scan() int { return ix.ScanContext(context.Background()) }

func (ix *Index) ScanContext(ctx context.Context) int {
	if ctx.Err() != nil {
		return 0
	}
	return ix.n
}

// UseIndex calls the uncancellable method with a ctx in scope: flagged.
func UseIndex(ctx context.Context, ix *Index) int {
	if ctx.Err() != nil {
		return 0
	}
	return ix.Scan() // want `Scan called with a ctx in scope: call ScanContext`
}

// Node is a tree whose nodes carry the context of the request that built
// them.
type Node struct {
	ctx         context.Context
	left, right *Node
}

func WalkContext(ctx context.Context, t *Node) int {
	if t == nil || ctx.Err() != nil {
		return 0
	}
	return 1 + WalkContext(ctx, t.left) + WalkContext(ctx, t.right)
}

// Walk recurses through itself with a ctx in scope; calls inside Walk are
// its own implementation, not a caller dropping a ctx: not flagged.
func Walk(t *Node) int {
	if t == nil {
		return 0
	}
	if ctx := t.ctx; ctx != nil && ctx.Err() != nil {
		return Walk(t.left)
	}
	return 1 + Walk(t.left) + Walk(t.right)
}

// Coalesced documents why a shared build outlives its caller: the ignore
// absorbs the report.
func Coalesced(ctx context.Context, n int) int {
	_ = ctx.Err()
	//lint:ignore ctxpropagate the build serves every coalesced waiter, so one caller's cancellation must not abort it
	return Build(n)
}
