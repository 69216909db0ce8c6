package obsrv

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ServeCLI serves addr for a command-line run named prog and turns
// SIGINT/SIGTERM into RequestStop, so the run halts at the next event
// boundary with perf.ErrStopped and the command can exit 0. shutdown
// stops the relay and closes the server within 3 s.
func ServeCLI(addr, prog string, log io.Writer) (srv *Server, shutdown func(), err error) {
	if srv, err = Serve(Config{Addr: addr}); err != nil {
		return nil, nil, err
	}
	sigc, done, exited := make(chan os.Signal, 1), make(chan struct{}), make(chan struct{})
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(exited)
		select {
		case sig := <-sigc:
			fmt.Fprintf(log, "%s: received %v, stopping run\n", prog, sig)
			srv.RequestStop()
		case <-done:
		}
	}()
	fmt.Fprintf(log, "%s: introspection server on %s\n", prog, srv.URL())
	return srv, func() {
		signal.Stop(sigc)
		close(done)
		<-exited
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			fmt.Fprintf(log, "%s: introspection shutdown: %v\n", prog, err)
		}
	}, nil
}
