// Full shard-lifecycle surface (fork + kill + waitpid): three raw-process
// findings anywhere outside src/core/harness/, src/service/ included —
// locprivd runs its shards through harness::ChildProcess. The waitpid is
// EINTR-correct so only the raw-process rule fires.
#include <cerrno>
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

int respawn_shard(int old_pid) {
  ::kill(old_pid, SIGTERM);
  int status = 0;
  while (::waitpid(old_pid, &status, 0) < 0 && errno == EINTR) {}
  return ::fork();
}
