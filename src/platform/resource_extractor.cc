#include "platform/resource_extractor.h"

#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/span.h"

namespace crowdex::platform {

ResourceExtractor::ResourceExtractor(const entity::KnowledgeBase* kb)
    : ResourceExtractor(kb, entity::AnnotatorOptions{}) {}

ResourceExtractor::ResourceExtractor(const entity::KnowledgeBase* kb,
                                     entity::AnnotatorOptions annotator_options)
    : annotator_(kb, annotator_options) {}

ResourceExtractor::ResourceExtractor(const entity::KnowledgeBase* kb,
                                     const ExtractorOptions& options)
    : pipeline_(options.pipeline),
      annotator_(kb, options.annotator),
      enrich_urls_(options.enrich_urls) {}

AnalyzedNode ResourceExtractor::AnalyzeText(const std::string& text) const {
  AnalyzedNode out;
  out.has_text = !text.empty();
  if (!out.has_text) return out;

  // One sanitize and one tokenization per resource: the sanitized text
  // feeds language identification and tokenization, and the raw tokens
  // feed both entity recognition and term extraction.
  const std::string sanitized = pipeline_.tokenizer().Sanitize(text);
  out.language = pipeline_.IdentifyLanguage(text, sanitized);
  out.english = out.language == text::Language::kEnglish;
  if (!out.english) return out;

  // Entity recognition runs on unstemmed tokens (entity aliases are surface
  // forms), term extraction on their stop-word-free stems.
  std::vector<std::string> raw_tokens =
      pipeline_.tokenizer().TokenizeSanitized(sanitized);
  std::vector<entity::Annotation> annotations = annotator_.Annotate(raw_tokens);

  std::unordered_map<entity::EntityId, index::DocEntity> merged;
  for (const auto& a : annotations) {
    index::DocEntity& slot = merged[a.entity];
    slot.entity = a.entity;
    slot.frequency += 1;
    slot.dscore = std::max(slot.dscore, a.dscore);
  }
  out.entities.reserve(merged.size());
  for (const auto& [id, e] : merged) out.entities.push_back(e);

  out.terms = pipeline_.TermsFromTokens(std::move(raw_tokens));
  return out;
}

AnalyzedNode ResourceExtractor::AnalyzeOneNode(const PlatformNetwork& network,
                                               const WebPageStore& web,
                                               FlakyApi* api, graph::NodeId n,
                                               bool* degraded) const {
  *degraded = false;
  std::string text = network.node_text[n];
  const std::string& url = network.node_url[n];
  if (!url.empty() && enrich_urls_) {
    // URL content extraction: append the linked page's main content. Dead
    // links (NotFound) degrade silently to the node's own text; transport-
    // level failures of the extraction API do the same but are counted as
    // degraded.
    Result<std::string> page =
        api != nullptr ? api->FetchUrl(web, url) : web.Fetch(url);
    if (page.ok()) {
      if (!text.empty()) text += ' ';
      text += page.value();
    } else if (page.status().code() != StatusCode::kNotFound) {
      *degraded = true;
    }
  }
  AnalyzedNode analyzed = AnalyzeText(text);
  analyzed.node = n;
  return analyzed;
}

AnalyzedCorpus ResourceExtractor::AnalyzeNetwork(
    const PlatformNetwork& network, const WebPageStore& web,
    const NetworkAnalyzeOptions& options) const {
  AnalyzedCorpus corpus;
  corpus.platform = network.platform;
  const size_t node_count = network.graph.node_count();
  obs::StageTimer timer(options.metrics, "extract");

  // The fault-injecting API draws from one ordered fault stream, so its
  // path must consume nodes strictly in id order (single-threaded).
  const bool parallel = options.api == nullptr && options.pool != nullptr &&
                        options.pool->thread_count() > 1 && node_count > 1;

  corpus.nodes.resize(node_count);
  std::vector<uint8_t> degraded_flags(node_count, 0);
  if (parallel) {
    // Each node's analysis is a pure function of that node (the extractor
    // and page store are immutable), so chunks write disjoint pre-sized
    // slots and the result is identical to the sequential loop below.
    // Chunks of >= 32 nodes amortize the dispatch cost of short texts.
    // The body is infallible, so the returned status can only be OK.
    Status analyzed = options.pool->ParallelFor(
        node_count, /*min_chunk=*/32, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            bool degraded = false;
            corpus.nodes[i] =
                AnalyzeOneNode(network, web, /*api=*/nullptr,
                               static_cast<graph::NodeId>(i), &degraded);
            degraded_flags[i] = degraded ? 1 : 0;
          }
          return Status::Ok();
        });
    CheckOk(analyzed, "ResourceExtractor::AnalyzeNetwork ParallelFor");
  } else {
    for (graph::NodeId n = 0; n < node_count; ++n) {
      bool degraded = false;
      corpus.nodes[n] =
          AnalyzeOneNode(network, web, options.api, n, &degraded);
      degraded_flags[n] = degraded ? 1 : 0;
    }
  }

  // Statistics are committed in node order after the (possibly parallel)
  // analysis, keeping them independent of execution interleaving.
  size_t annotated_nodes = 0;
  for (graph::NodeId n = 0; n < node_count; ++n) {
    if (!network.node_url[n].empty()) ++corpus.nodes_with_url;
    if (corpus.nodes[n].has_text) ++corpus.nodes_with_text;
    if (corpus.nodes[n].english) ++corpus.english_nodes;
    if (!corpus.nodes[n].entities.empty()) ++annotated_nodes;
    if (degraded_flags[n] != 0) ++corpus.degraded_nodes;
  }
  if (options.metrics != nullptr) {
    using obs::MetricsRegistry;
    MetricsRegistry::Add(options.metrics, "extract.nodes", node_count);
    MetricsRegistry::Add(options.metrics, "extract.nodes_with_text",
                         corpus.nodes_with_text);
    MetricsRegistry::Add(options.metrics, "extract.nodes_with_url",
                         corpus.nodes_with_url);
    MetricsRegistry::Add(options.metrics, "extract.english_nodes",
                         corpus.english_nodes);
    MetricsRegistry::Add(options.metrics, "extract.language_filtered",
                         corpus.nodes_with_text - corpus.english_nodes);
    MetricsRegistry::Add(options.metrics, "extract.annotated_nodes",
                         annotated_nodes);
    MetricsRegistry::Add(options.metrics, "extract.degraded",
                         corpus.degraded_nodes);
  }
  return corpus;
}

index::AnalyzedQuery ResourceExtractor::AnalyzeQuery(
    const std::string& query_text) const {
  index::AnalyzedQuery q;
  std::vector<std::string> raw_tokens =
      pipeline_.tokenizer().Tokenize(query_text);
  for (const auto& a : annotator_.Annotate(raw_tokens)) {
    q.entities.push_back(a.entity);
  }
  q.terms = pipeline_.TermsFromTokens(std::move(raw_tokens));
  return q;
}

}  // namespace crowdex::platform
