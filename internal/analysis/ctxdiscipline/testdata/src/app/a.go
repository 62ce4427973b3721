// Fixture for ctxdiscipline check (2): a ctx-taking function must
// forward its ctx, not detach callees with Background/TODO.
package app

import "context"

func helper(ctx context.Context) {}

func process(ctx context.Context) {
	helper(context.Background()) // want `context.Background\(\) inside a ctx-taking function`
	helper(context.TODO())       // want `context.TODO\(\) inside a ctx-taking function`
	helper(ctx)
}

// top has no ctx to forward; Background is the correct root here.
func top() {
	helper(context.Background())
}

// nested literals with their own ctx parameter are judged against it,
// not the enclosing function's.
func dispatch(ctx context.Context) func(context.Context) {
	return func(inner context.Context) {
		helper(inner)
	}
}

func detachDeliberate(ctx context.Context) {
	//reoptvet:ignore ctxdiscipline the callee must outlive this caller; its owner manages its lifetime, not this ctx
	helper(context.Background())
}
