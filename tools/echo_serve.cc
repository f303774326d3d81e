/**
 * @file
 * echo-serve: command-line front end of the inference-serving layer
 * (src/serve).  Loads one or more checkpoints (model family and
 * hyperparameters are inferred from the stored tensors — several
 * checkpoints make a mixed-traffic server), starts a Server, submits
 * the requests from a file (or a built-in demo set), prints one line
 * per response, and finishes with the latency/throughput summary.
 *
 * Request file format — one request per line:
 *
 *     # comment
 *     12 7 93 5                  <- token ids (greedy decode / LM top-k)
 *     beam=4 12 7 93 5           <- NMT beam search, width 4
 *     topk=3 12 7 93             <- word LM, report 3 candidates
 *     model=nmt 12 7 93          <- route to the nmt session
 *     tier=interactive 12 7      <- SLO tier (default batch)
 *     deadline-us=5000 12 7      <- deadline budget from admission
 *     cancel-after-us=200 12 7   <- client cancels this id after 200us
 *
 * --journal=PATH dumps the continuous scheduler's slot-recycling leases
 * in the format `echo-lint --serve-journal=PATH` checks — closing the
 * loop between the serving layer and the static analyzer.
 *
 * Exit status: 0 when every submitted request resolved as expected
 * (cancelled requests count as expected when a cancel was asked for),
 * 1 otherwise, 2 on usage errors.
 *
 * usage: echo-serve --ckpt=PATH[,PATH...] [--requests=FILE] [--slots=N]
 *                   [--buckets=8,16,32] [--beam=K] [--max-new=N]
 *                   [--queue=N] [--threads=N] [--journal=PATH]
 */
#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "serve/server.h"

namespace {

using namespace echo;

struct ServeOptions
{
    std::vector<std::string> ckpts;
    std::string requests_path;
    std::string journal_path;
    serve::SessionConfig session;
    serve::ServerConfig server;
    int64_t max_new_tokens = 16;
    int threads = 0; // 0 = leave the pool alone
};

/** A request plus its client-side cancellation delay (0 = none). */
struct PlannedRequest
{
    serve::Request req;
    int64_t cancel_after_us = 0;
};

std::vector<std::string>
splitCommas(const std::string &spec)
{
    std::vector<std::string> items;
    std::istringstream fields(spec);
    std::string item;
    while (std::getline(fields, item, ','))
        items.push_back(item);
    return items;
}

std::vector<int64_t>
parseBuckets(const std::string &spec)
{
    std::vector<int64_t> buckets;
    for (const std::string &item : splitCommas(spec))
        buckets.push_back(std::stoll(item));
    return buckets;
}

bool
parseArgs(int argc, char **argv, ServeOptions &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--ckpt=", 0) == 0) {
            opts.ckpts = splitCommas(arg.substr(7));
        } else if (arg.rfind("--requests=", 0) == 0) {
            opts.requests_path = arg.substr(11);
        } else if (arg.rfind("--journal=", 0) == 0) {
            opts.journal_path = arg.substr(10);
        } else if (arg.rfind("--slots=", 0) == 0) {
            opts.session.slots = std::stoll(arg.substr(8));
        } else if (arg.rfind("--buckets=", 0) == 0) {
            opts.session.buckets = parseBuckets(arg.substr(10));
        } else if (arg.rfind("--beam=", 0) == 0) {
            opts.session.beam_width = std::stoi(arg.substr(7));
        } else if (arg.rfind("--max-new=", 0) == 0) {
            opts.max_new_tokens = std::stoll(arg.substr(10));
        } else if (arg.rfind("--queue=", 0) == 0) {
            opts.server.queue_capacity =
                static_cast<size_t>(std::stoull(arg.substr(8)));
        } else if (arg.rfind("--threads=", 0) == 0) {
            opts.threads = std::stoi(arg.substr(10));
        } else {
            std::cerr << "echo-serve: unknown argument " << arg << "\n";
            return false;
        }
    }
    if (opts.ckpts.empty()) {
        std::cerr << "echo-serve: --ckpt=PATH[,PATH...] is required\n";
        return false;
    }
    return true;
}

/** Parse the request file (see the file comment for the format). */
bool
loadRequests(const std::string &path, int64_t max_new,
             std::vector<PlannedRequest> &out)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "echo-serve: cannot open " << path << "\n";
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        PlannedRequest planned;
        serve::Request &req = planned.req;
        req.max_new_tokens = max_new;
        std::string tok;
        while (fields >> tok) {
            if (tok.rfind("beam=", 0) == 0)
                req.beam_width = std::stoi(tok.substr(5));
            else if (tok.rfind("topk=", 0) == 0)
                req.top_k = std::stoi(tok.substr(5));
            else if (tok.rfind("model=", 0) == 0)
                req.model = tok.substr(6);
            else if (tok.rfind("tier=", 0) == 0)
                req.tier = tok.substr(5) == "interactive"
                               ? serve::Tier::kInteractive
                               : serve::Tier::kBatch;
            else if (tok.rfind("deadline-us=", 0) == 0)
                req.deadline_us = std::stoll(tok.substr(12));
            else if (tok.rfind("cancel-after-us=", 0) == 0)
                planned.cancel_after_us = std::stoll(tok.substr(16));
            else
                req.tokens.push_back(std::stoll(tok));
        }
        out.push_back(std::move(planned));
    }
    return true;
}

/** Fallback when no --requests file is given: a small fixed set of
 *  short prefixes valid for any vocabulary (ids stay tiny). */
std::vector<PlannedRequest>
demoRequests(int64_t max_new)
{
    std::vector<PlannedRequest> reqs;
    const std::vector<std::vector<int64_t>> token_sets = {
        {3, 4, 5}, {6, 7}, {3, 5, 7, 9, 11}, {4, 4, 4, 4}};
    for (const auto &tokens : token_sets) {
        PlannedRequest planned;
        planned.req.tokens = tokens;
        planned.req.max_new_tokens = max_new;
        reqs.push_back(std::move(planned));
    }
    return reqs;
}

std::string
formatTokens(const std::vector<int64_t> &tokens)
{
    std::ostringstream oss;
    oss << "[";
    for (size_t i = 0; i < tokens.size(); ++i)
        oss << (i == 0 ? "" : " ") << tokens[i];
    oss << "]";
    return oss.str();
}

} // namespace

int
main(int argc, char **argv)
{
    ServeOptions opts;
    if (!parseArgs(argc, argv, opts))
        return 2;
    if (opts.threads > 0)
        ThreadPool::setGlobalNumThreads(opts.threads);

    std::vector<PlannedRequest> requests;
    if (!opts.requests_path.empty()) {
        if (!loadRequests(opts.requests_path, opts.max_new_tokens,
                          requests))
            return 2;
    } else {
        requests = demoRequests(opts.max_new_tokens);
    }
    if (requests.empty()) {
        std::cerr << "echo-serve: no requests to submit\n";
        return 2;
    }

    std::vector<std::unique_ptr<serve::InferenceSession>> sessions;
    for (const std::string &ckpt : opts.ckpts) {
        sessions.push_back(
            serve::InferenceSession::fromCheckpoint(ckpt, opts.session));
        std::cout << "echo-serve: " << sessions.back()->describe()
                  << "\n";
    }

    serve::Server server(std::move(sessions), opts.server);
    std::vector<std::future<serve::Response>> futures;
    std::vector<int64_t> cancel_after;
    futures.reserve(requests.size());
    for (PlannedRequest &planned : requests) {
        cancel_after.push_back(planned.cancel_after_us);
        futures.push_back(server.submit(std::move(planned.req)));
    }
    // Client-side cancellations: the id sequence is the submit order.
    for (size_t i = 0; i < cancel_after.size(); ++i) {
        if (cancel_after[i] <= 0)
            continue;
        std::this_thread::sleep_for(
            std::chrono::microseconds(cancel_after[i]));
        server.cancel(static_cast<int64_t>(i));
    }

    int failures = 0;
    for (size_t i = 0; i < futures.size(); ++i) {
        const serve::Response resp = futures[i].get();
        if (resp.ok && !resp.tokens.empty()) {
            std::cout << "id=" << resp.id
                      << " ok tokens=" << formatTokens(resp.tokens)
                      << " score="
                      << (resp.scores.empty() ? 0.0f : resp.scores[0])
                      << " bucket=" << resp.bucket_len
                      << " batch=" << resp.batch_requests << "\n";
            continue;
        }
        // A request the file asked to cancel resolving kCancelled (or
        // finishing first) is the expected outcome, not a failure.
        const bool expected_cancel =
            cancel_after[i] > 0 &&
            resp.reject == serve::RejectReason::kCancelled;
        if (!expected_cancel)
            ++failures;
        std::cout << "id=" << resp.id << " "
                  << (expected_cancel ? "cancelled" : "FAILED")
                  << " reason="
                  << serve::rejectReasonName(resp.reject) << "\n";
    }
    server.stop();

    const serve::ServerStats stats = server.stats();
    std::cout << "accepted=" << stats.accepted
              << " rejected=" << stats.rejected
              << " completed=" << stats.completed
              << " cancelled=" << stats.cancelled
              << " expired=" << stats.expired
              << " batches=" << stats.batches << " mean_batch="
              << stats.mean_batch_requests
              << " splices=" << stats.splices
              << " recycled=" << stats.recycled_slots << "\n"
              << "latency_us p50=" << stats.latency_p50_us
              << " p95=" << stats.latency_p95_us
              << " p99=" << stats.latency_p99_us
              << " wait_p99=" << stats.wait_p99_us << "\n";

    if (!opts.journal_path.empty()) {
        std::ofstream journal(opts.journal_path);
        journal << "# request_id pool slot acquired released reinit "
                   "status\n";
        for (const auto &lease : server.leaseJournal()) {
            const char *status =
                lease.status == analysis::LeaseStatus::kServed
                    ? "served"
                    : lease.status == analysis::LeaseStatus::kCancelled
                          ? "cancelled"
                          : "expired";
            journal << lease.request_id << " " << lease.pool << " "
                    << lease.slot << " " << lease.acquired << " "
                    << lease.released << " " << lease.reinit << " "
                    << status << "\n";
        }
        std::cout << "journal written to " << opts.journal_path << "\n";
    }
    return failures == 0 ? 0 : 1;
}
